//! Deterministic generators for the four benchmark product lines of the
//! paper's evaluation (Table 1): BerkeleyDB, GPL, Lampiro, and MM08.
//!
//! The original CIDE projects are unavailable (see `DESIGN.md` §4), so
//! each subject is *simulated* by a seeded generator that reproduces the
//! characteristics Table 1 reports and that drive the experiments:
//!
//! * the **feature counts** — total and reachable-from-`main` — are
//!   matched exactly (they determine the number of configurations and
//!   hence the A2 baseline's exponential cost),
//! * the **valid-configuration counts** are matched exactly where the
//!   paper states them (GPL: 1 872 of 2^19; MM08: 26 of 2^9; Lampiro:
//!   4 of 4) by constructing feature models with those solution counts,
//! * **code size** is scaled to roughly a tenth of the original KLOC so
//!   the baselines finish in CI time (the paper itself had to cut A2 off
//!   at ten hours and extrapolate; we apply the same rule at a smaller
//!   cutoff),
//! * the code mixes straight-line arithmetic, branches, loops, calls
//!   (static and virtual through a small class hierarchy), fields, and
//!   CIDE-disciplined `#ifdef` blocks over the reachable features, plus
//!   *dead* classes annotated with the unreachable features.
//!
//! Everything is generated as mini-Java **source text** and pushed through
//! the real frontend, so the pipeline (and the KLOC metric) is honest.

#![warn(missing_docs)]
mod codegen;
mod models;
pub mod mutate;
pub mod random_ir;
pub mod reduce;

pub use codegen::CodegenParams;
pub use mutate::{mutate, mutate_once, Mutation};
pub use random_ir::{random_spl, RandomSpl};
pub use reduce::{payload_stmt_count, reduce, Oracle, ReduceOutcome};

use spllift_features::{Configuration, FeatureExpr, FeatureId, FeatureModel, FeatureTable};
use spllift_ir::{Program, ProgramIcfg};

/// Shape of the feature model generated for `Synthetic` subjects — the
/// model-side half of *scaled-subject shaping* (the code-side half is
/// [`SubjectSpec::call_depth`]). The four named subjects keep their
/// Table 1 models regardless of this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelShape {
    /// Every feature optional and unconstrained: exactly `2^n` valid
    /// configurations (the worst case for product-based baselines) and
    /// a trivial model constraint.
    #[default]
    Free,
    /// An implication chain `f1 → f0, f2 → f1, …`: exactly `n + 1`
    /// valid configurations, and a model BDD that stays *linear* in the
    /// feature count — large feature universes without BDD blowup.
    Chain,
    /// BerkeleyDB-like structure: OR-groups of three, implication
    /// pairs, a mandatory core, and a free tail. Structurally rich
    /// per-edge constraints; the valid-configuration count is computed
    /// (not closed-form), so [`SubjectSpec::paper_valid_configs`] is
    /// `None`.
    Groups,
}

impl ModelShape {
    /// The grammar keyword (`model=<keyword>` in synthetic spec names).
    pub fn keyword(self) -> &'static str {
        match self {
            ModelShape::Free => "free",
            ModelShape::Chain => "chain",
            ModelShape::Groups => "groups",
        }
    }

    /// Parses a grammar keyword.
    pub fn from_keyword(s: &str) -> Option<ModelShape> {
        match s {
            "free" => Some(ModelShape::Free),
            "chain" => Some(ModelShape::Chain),
            "groups" => Some(ModelShape::Groups),
            _ => None,
        }
    }
}

/// Static description of one benchmark subject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubjectSpec {
    /// Subject name as in Table 1.
    pub name: &'static str,
    /// Target generated size, in (scaled) lines of code.
    pub loc_target: usize,
    /// Total number of features (Table 1, "Features total").
    pub total_features: usize,
    /// Features reachable from `main` (Table 1, "Features reachable").
    pub reachable_features: usize,
    /// Valid configurations per Table 1 (`None` = the paper reports
    /// "unknown"; we can still compute it with a BDD).
    pub paper_valid_configs: Option<u128>,
    /// RNG seed (fixed → bit-identical subjects on every run).
    pub seed: u64,
    /// Feature-model shape (`Synthetic` subjects only).
    pub model_shape: ModelShape,
    /// Minimum interprocedural call-chain depth: the generator appends
    /// a `D0 → D1 → … → D{n-1}` call chain reached from `main`, so the
    /// call graph is at least this deep. `None` = generator default
    /// (no explicit chain).
    pub call_depth: Option<usize>,
}

impl SubjectSpec {
    /// The same spec with an explicit feature-model shape.
    #[must_use]
    pub fn with_model_shape(mut self, shape: ModelShape) -> Self {
        self.model_shape = shape;
        // Only `Synthetic` models are shaped; the named subjects keep
        // their Table 1 models and counts.
        if self.name == "Synthetic" {
            self.paper_valid_configs = match shape {
                ModelShape::Free => 1u128.checked_shl(self.total_features as u32),
                ModelShape::Chain => Some(self.total_features as u128 + 1),
                ModelShape::Groups => None,
            };
        }
        self
    }

    /// The same spec with an explicit call-chain depth.
    #[must_use]
    pub fn with_call_depth(mut self, depth: usize) -> Self {
        self.call_depth = Some(depth);
        self
    }
}

/// The four subjects of Table 1, scaled as documented in the crate docs.
pub fn subjects() -> [SubjectSpec; 4] {
    [
        SubjectSpec {
            name: "BerkeleyDB",
            loc_target: 8400,
            total_features: 56,
            reachable_features: 39,
            paper_valid_configs: None,
            seed: 0xBE11,
            model_shape: ModelShape::Free,
            call_depth: None,
        },
        SubjectSpec {
            name: "GPL",
            loc_target: 1400,
            total_features: 29,
            reachable_features: 19,
            paper_valid_configs: Some(1872),
            seed: 0x09B1,
            model_shape: ModelShape::Free,
            call_depth: None,
        },
        SubjectSpec {
            name: "Lampiro",
            loc_target: 4500,
            total_features: 20,
            reachable_features: 2,
            paper_valid_configs: Some(4),
            seed: 0x1A3B,
            model_shape: ModelShape::Free,
            call_depth: None,
        },
        SubjectSpec {
            name: "MM08",
            loc_target: 570,
            total_features: 34,
            reachable_features: 9,
            paper_valid_configs: Some(26),
            seed: 0x3308,
            model_shape: ModelShape::Free,
            call_depth: None,
        },
    ]
}

/// Looks up a subject by (case-insensitive) name.
pub fn subject_by_name(name: &str) -> Option<SubjectSpec> {
    subjects()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// A synthetic scaling subject: `features` unconstrained optional
/// features over ~`loc` lines of code. Every one of the `2^features`
/// configurations is valid — the worst case for the product-based
/// baselines, used by the `report -- scaling` experiment to plot the
/// exponential blowup SPLLIFT avoids (paper §8).
pub fn synthetic_spec(features: usize, loc: usize, seed: u64) -> SubjectSpec {
    SubjectSpec {
        name: "Synthetic",
        loc_target: loc,
        total_features: features,
        reachable_features: features,
        // `None` past 127 features: the count no longer fits a `u128`,
        // which is itself the point of the scaling subjects.
        paper_valid_configs: 1u128.checked_shl(features as u32),
        seed,
        model_shape: ModelShape::Free,
        call_depth: None,
    }
}

/// The one-line grammar every front end (CLI `gen:` inputs, the server
/// `load` request, the bench bins) accepts for generated subjects —
/// kept here so there is exactly one parser:
///
/// ```text
/// MM08 | GPL | Lampiro | BerkeleyDB
/// synthetic:<features>:<loc>:<seed>[:model=free|chain|groups][:depth=N]
/// ```
///
/// The optional trailing `model=`/`depth=` clauses are the
/// *scaled-subject shaping* knobs: `model=` picks the [`ModelShape`]
/// (default `free`), `depth=` forces an interprocedural call chain of
/// at least `N` methods ([`SubjectSpec::call_depth`]). Clauses may
/// appear in either order, each at most once. `<features>` is in
/// 1..=256, `<loc>` at most 100,000 (above the paper's largest subject,
/// BerkeleyDB at 84 KLOC) and `N` in 1..=10,000, so one spec cannot ask
/// for unbounded generation work.
pub const SUBJECT_GRAMMAR: &str =
    "MM08|GPL|Lampiro|BerkeleyDB, or synthetic:<features>:<loc>:<seed>[:model=free|chain|groups][:depth=N] \
     (features 1..=256, loc <= 100000, depth 1..=10000)";

/// The largest `<loc>` a `synthetic:` spec may ask for.
const MAX_SYNTHETIC_LOC: usize = 100_000;

/// The largest `depth=` a `synthetic:` spec may ask for.
const MAX_SYNTHETIC_DEPTH: usize = 10_000;

/// Parses a subject name per [`SUBJECT_GRAMMAR`] — either a Table 1
/// subject (case-insensitive) or a `synthetic:` spec with optional
/// shaping clauses.
pub fn parse_subject_spec(name: &str) -> Result<SubjectSpec, String> {
    let Some(rest) = name.strip_prefix("synthetic:") else {
        return subject_by_name(name)
            .ok_or_else(|| format!("unknown generated subject `{name}` ({SUBJECT_GRAMMAR})"));
    };
    let parts: Vec<&str> = rest.split(':').collect();
    if parts.len() < 3 {
        return Err(format!("synthetic takes {SUBJECT_GRAMMAR}"));
    }
    let parse = |what: &str, v: &str| -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("synthetic {what} must be an integer, got `{v}`"))
    };
    let features = parse("feature count", parts[0])?;
    if features == 0 || features > 256 {
        return Err(format!(
            "synthetic feature count must be in 1..=256, got `{features}`"
        ));
    }
    let loc = parse("loc", parts[1])?;
    if loc > MAX_SYNTHETIC_LOC {
        return Err(format!(
            "synthetic loc must be at most {MAX_SYNTHETIC_LOC}, got `{loc}`"
        ));
    }
    let mut spec = synthetic_spec(features, loc, parse("seed", parts[2])? as u64);
    let (mut saw_model, mut saw_depth) = (false, false);
    for clause in &parts[3..] {
        if let Some(kw) = clause.strip_prefix("model=") {
            if std::mem::replace(&mut saw_model, true) {
                return Err("synthetic `model=` given twice".into());
            }
            let shape = ModelShape::from_keyword(kw)
                .ok_or_else(|| format!("unknown model shape `{kw}` (free|chain|groups)"))?;
            spec = spec.with_model_shape(shape);
        } else if let Some(d) = clause.strip_prefix("depth=") {
            if std::mem::replace(&mut saw_depth, true) {
                return Err("synthetic `depth=` given twice".into());
            }
            let d = parse("depth", d)?;
            if d == 0 || d > MAX_SYNTHETIC_DEPTH {
                return Err(format!(
                    "synthetic depth must be in 1..={MAX_SYNTHETIC_DEPTH}, got `{d}`"
                ));
            }
            spec = spec.with_call_depth(d);
        } else {
            return Err(format!(
                "unknown synthetic clause `{clause}` (expected model=… or depth=…)"
            ));
        }
    }
    Ok(spec)
}

/// A fully generated benchmark product line.
#[derive(Debug)]
pub struct GeneratedSpl {
    /// The spec this was generated from.
    pub spec: SubjectSpec,
    /// The generated mini-Java source.
    pub source: String,
    /// The lowered IR program.
    pub program: Program,
    /// Feature table: reachable features first, then unreachable, then
    /// the model root (named `Root`).
    pub table: FeatureTable,
    /// The feature model.
    pub model: FeatureModel,
    /// The reachable features, in order.
    pub reachable: Vec<FeatureId>,
    /// The model root feature (always enabled in valid configurations).
    pub root: FeatureId,
    /// Generated lines of code (non-blank, non-comment).
    pub loc: usize,
}

impl GeneratedSpl {
    /// Generates the subject with default codegen parameters.
    /// Deterministic: equal specs yield equal output.
    ///
    /// # Panics
    ///
    /// Panics if the generator produces source the frontend rejects —
    /// that would be a bug, and the generator tests would catch it.
    pub fn generate(spec: SubjectSpec) -> Self {
        Self::generate_with_params(spec, CodegenParams::default())
    }

    /// Generates the subject with explicit [`CodegenParams`] — used by the
    /// annotation-density sweep (`report -- density`).
    pub fn generate_with_params(spec: SubjectSpec, params: CodegenParams) -> Self {
        let mut table = FeatureTable::new();
        let reachable: Vec<FeatureId> = (0..spec.reachable_features)
            .map(|i| table.intern(&format!("F{i}")))
            .collect();
        let unreachable: Vec<FeatureId> = (0..spec.total_features - spec.reachable_features)
            .map(|i| table.intern(&format!("U{i}")))
            .collect();
        let root = table.intern("Root");
        let model = models::model_for(spec.name, spec.model_shape, root, &reachable, &unreachable);
        let source = codegen::generate_source(&spec, &table, &reachable, &unreachable, params);
        let loc = spllift_frontend::count_loc(&source);
        let mut parse_table = table.clone();
        let program = spllift_frontend::parse_spl(&source, &mut parse_table)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}"));
        assert_eq!(
            parse_table.len(),
            table.len(),
            "generator used a feature the table does not know"
        );
        GeneratedSpl {
            spec,
            source,
            program,
            table,
            model,
            reachable,
            root,
            loc,
        }
    }

    /// The model as a propositional constraint.
    pub fn model_expr(&self) -> FeatureExpr {
        self.model.to_expr()
    }

    /// Counts the valid configurations over the *reachable* features
    /// (root and unreachable model features projected away by fixing the
    /// root to `true` and existentially ignoring unreachables — our
    /// models constrain only root + reachable features, so a plain
    /// restricted sat-count suffices). This is the Table 1 "valid"
    /// column, computable even where the paper says *unknown*.
    pub fn count_valid_configs(&self) -> u128 {
        use spllift_features::ConstraintContext as _;
        let ctx = spllift_features::BddConstraintContext::new(&self.table);
        let c = ctx.of_expr(&self.model_expr());
        let root_var = ctx.var_of(self.root).expect("root interned");
        let fixed = c.restrict(root_var, true);
        // Project away any non-reachable variables that might linger in
        // the model (ours constrain only root + reachable features, so
        // this is a no-op in practice, but it keeps the count correct for
        // arbitrary models) and count over the reachable prefix.
        let beyond: Vec<_> = fixed
            .support()
            .into_iter()
            .filter(|v| (v.0 as usize) >= self.reachable.len())
            .collect();
        let projected = fixed.exists_many(&beyond);
        projected.sat_count_over(self.reachable.len() as u32)
    }

    /// Enumerates the valid configurations over the reachable features
    /// (with the root enabled). Only for subjects with small counts —
    /// BerkeleyDB-shaped subjects will refuse (2^39).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 30 reachable features.
    pub fn valid_configurations(&self) -> Vec<Configuration> {
        assert!(
            self.reachable.len() <= 30,
            "refusing to enumerate 2^{} configurations",
            self.reachable.len()
        );
        let expr = self.model_expr();
        let mut out = Vec::new();
        for bits in 0u64..(1u64 << self.reachable.len()) {
            let mut cfg = Configuration::from_bits(bits, self.reachable.len());
            cfg.enable(self.root);
            if cfg.satisfies(&expr) {
                out.push(cfg);
            }
        }
        out
    }

    /// The full-configuration (all reachable features on) and
    /// empty-configuration products — the two runs the paper averages to
    /// extrapolate A2 past the cutoff (§6.2).
    pub fn extrapolation_configs(&self) -> [Configuration; 2] {
        let mut full = Configuration::from_enabled(self.reachable.iter().copied());
        full.enable(self.root);
        let mut empty = Configuration::empty();
        empty.enable(self.root);
        [full, empty]
    }

    /// Builds the ICFG (call graph etc.) — the "Soot/CG" step of Table 2.
    pub fn icfg(&self) -> ProgramIcfg<'_> {
        ProgramIcfg::new(&self.program)
    }
}

#[cfg(test)]
mod tests;
