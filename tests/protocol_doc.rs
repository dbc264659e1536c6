//! Conformance between the router and `docs/PROTOCOL.md`: every
//! request type the server accepts is documented, and the document
//! describes no request type the server does not accept. Also pins the
//! documented error kinds, budget-override fields, request-line cap and
//! nesting cap to the implementation, so the spec cannot rot silently.

use spllift::json::MAX_JSON_DEPTH;
use spllift::server::{MAX_REQUEST_LINE, REQUEST_TYPES};

fn protocol_doc() -> String {
    std::fs::read_to_string("docs/PROTOCOL.md").expect("docs/PROTOCOL.md exists")
}

/// The request-type headings (`### `type``) of the Requests section.
fn documented_types(doc: &str) -> Vec<String> {
    doc.lines()
        .filter_map(|l| l.strip_prefix("### `"))
        .filter_map(|rest| rest.strip_suffix('`'))
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_request_type_is_documented_and_vice_versa() {
    let doc = protocol_doc();
    let documented = documented_types(&doc);
    for ty in REQUEST_TYPES {
        assert!(
            documented.iter().any(|d| d == ty),
            "request type `{ty}` (accepted by the router) has no \
             `### \\`{ty}\\`` section in docs/PROTOCOL.md"
        );
    }
    for d in &documented {
        assert!(
            REQUEST_TYPES.contains(&d.as_str()),
            "docs/PROTOCOL.md documents `{d}`, which the router does not accept"
        );
    }
    // The unknown-type error message enumerates the same list, in the
    // same order the document introduces the sections.
    assert_eq!(
        documented,
        REQUEST_TYPES.to_vec(),
        "PROTOCOL.md sections must appear in the canonical REQUEST_TYPES order"
    );
}

#[test]
fn documented_error_kinds_and_budget_fields_match_the_implementation() {
    let doc = protocol_doc();
    // Flagged error kinds the executor/handler emit.
    for kind in ["panic", "overloaded", "shutting-down", "internal"] {
        assert!(
            doc.contains(&format!("`{kind}`")),
            "error kind `{kind}` missing from docs/PROTOCOL.md"
        );
    }
    // Per-request budget/tuning overrides accepted by `analyze`.
    for field in [
        "timeout_ms",
        "bdd_node_budget",
        "bdd_op_budget",
        "max_propagations",
        "threads",
        "keep_features",
    ] {
        assert!(
            doc.contains(&format!("`{field}`")),
            "budget field `{field}` missing from docs/PROTOCOL.md"
        );
    }
    // Core vocabulary that responses use.
    for needle in [
        "\"cold\"",
        "\"incremental\"",
        "\"cached\"",
        "\"full\"",
        "\"no-model\"",
        "\"constraint-true\"",
        "quarantined",
    ] {
        assert!(
            doc.contains(needle),
            "`{needle}` missing from docs/PROTOCOL.md"
        );
    }
}

#[test]
fn documented_request_line_cap_is_the_implementation_constant() {
    let doc = protocol_doc();
    for needle in [
        format!("at most {MAX_REQUEST_LINE} bytes"),
        format!("`request line exceeds {MAX_REQUEST_LINE} bytes`"),
    ] {
        assert!(
            doc.contains(&needle),
            "`{needle}` missing from docs/PROTOCOL.md §Framing"
        );
    }
}

#[test]
fn documented_nesting_cap_is_the_implementation_constant() {
    let doc = protocol_doc();
    for needle in [
        format!("at most {MAX_JSON_DEPTH} levels deep"),
        format!("`nesting deeper than {MAX_JSON_DEPTH} levels`"),
    ] {
        assert!(
            doc.contains(&needle),
            "`{needle}` missing from docs/PROTOCOL.md §Framing"
        );
    }
    let line = "[".repeat(MAX_JSON_DEPTH + 1);
    let err = spllift::json::parse_json(&line).unwrap_err();
    assert!(
        err.ends_with(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")),
        "{err}"
    );
}

#[test]
fn documented_lattice_and_governor_vocabulary_matches_the_implementation() {
    use spllift::features::{AbstractionStep, FeatureId, LatticePoint};

    let doc = protocol_doc();
    // The canonical point names the implementation renders must appear
    // verbatim (they are the stable rung vocabulary)...
    for point in [
        LatticePoint::full(),
        LatticePoint::no_model(),
        LatticePoint::constraint_true(),
    ] {
        assert!(
            doc.contains(&format!("\"{}\"", point.name())),
            "canonical lattice point `{}` missing from docs/PROTOCOL.md",
            point.name()
        );
    }
    // ...and the composite rendering scheme is documented with names
    // built exactly as `LatticePoint::name` builds them.
    let composite = LatticePoint::abstracted(vec![AbstractionStep::project(vec![
        (FeatureId(2), "F2".to_string()),
        (FeatureId(3), "F3".to_string()),
    ])]);
    assert!(
        doc.contains(&format!("`\"{}\"`", composite.name())),
        "composite point example `{}` missing from docs/PROTOCOL.md",
        composite.name()
    );
    assert!(
        doc.contains(&format!("`\"no-model+{}\"`", composite.name())),
        "model-dropping composite example missing from docs/PROTOCOL.md"
    );
    // The per-point degradation counters and the governor's fault kind.
    for needle in ["`degraded_points`", "degraded_solves", "budget-exhaust"] {
        assert!(
            doc.contains(needle),
            "`{needle}` missing from docs/PROTOCOL.md"
        );
    }
    // The strict per-request keep_features error is quoted verbatim.
    assert!(
        doc.contains("unknown feature `X` in `keep_features`"),
        "strict keep_features error missing from docs/PROTOCOL.md"
    );
    assert!(
        doc.contains("--keep-features"),
        "server-wide --keep-features default missing from docs/PROTOCOL.md"
    );
}
