//! The analysis registry: the four liftable client analyses every front
//! end (CLI, server, fuzz campaign, bench) offers by name.
//!
//! [`AnalysisKind`] is the one name table and [`with_analysis!`] the one
//! place where a runtime-chosen kind becomes its IFDS problem, so a front
//! end never matches on analysis names itself.

/// One of the four liftable client analyses offered by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// [`crate::TaintAnalysis::secret_to_print`], the running example (§1).
    Taint,
    /// [`crate::PossibleTypes`].
    Types,
    /// [`crate::ReachingDefs`].
    ReachingDefs,
    /// [`crate::UninitVars`].
    Uninit,
}

impl AnalysisKind {
    /// Every kind, in wire order.
    pub const ALL: [AnalysisKind; 4] = [
        AnalysisKind::Taint,
        AnalysisKind::Types,
        AnalysisKind::ReachingDefs,
        AnalysisKind::Uninit,
    ];

    /// The three analyses of the paper's Tables 2 and 3, in paper order.
    pub const PAPER_THREE: [AnalysisKind; 3] = [
        AnalysisKind::Types,
        AnalysisKind::ReachingDefs,
        AnalysisKind::Uninit,
    ];

    /// The name the CLI's `--analysis` and the server's `"analysis"`
    /// field accept.
    pub const fn name(self) -> &'static str {
        match self {
            AnalysisKind::Taint => "taint",
            AnalysisKind::Types => "types",
            AnalysisKind::ReachingDefs => "reaching-defs",
            AnalysisKind::Uninit => "uninit",
        }
    }

    /// The column label of the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            AnalysisKind::Taint => "Taint",
            AnalysisKind::Types => "P. Types",
            AnalysisKind::ReachingDefs => "R. Def.",
            AnalysisKind::Uninit => "U. Var.",
        }
    }

    /// The kind named `name`, or an `unknown analysis` error listing
    /// every valid name.
    pub fn parse(name: &str) -> Result<AnalysisKind, String> {
        AnalysisKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = AnalysisKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown analysis `{name}` ({})", names.join("|"))
            })
    }
}

/// Evaluates `body` with `p` bound to a reference to `kind`'s IFDS
/// problem: `with_analysis!(kind, |p| solve(p, ...))`. The body is
/// monomorphized once per analysis, so it may be generic over the
/// problem's fact type.
#[macro_export]
macro_rules! with_analysis {
    ($kind:expr, |$p:ident| $body:expr) => {
        match $kind {
            $crate::AnalysisKind::Taint => {
                let $p = &$crate::TaintAnalysis::secret_to_print();
                $body
            }
            $crate::AnalysisKind::Types => {
                let $p = &$crate::PossibleTypes::new();
                $body
            }
            $crate::AnalysisKind::ReachingDefs => {
                let $p = &$crate::ReachingDefs::new();
                $body
            }
            $crate::AnalysisKind::Uninit => {
                let $p = &$crate::UninitVars::new();
                $body
            }
        }
    };
}
