//! A2: the configuration-specific feature-aware baseline (the oracle).

use spllift_core::{AnnotatedIcfg, LiftedIcfg};
use spllift_features::Configuration;
use spllift_ifds::{IfdsProblem, IfdsSolver};

/// Wraps an unchanged IFDS problem into a *configuration-specific*
/// feature-aware analysis, exactly as the paper describes A2 (§6.1):
///
/// > "If a statement s is labeled with a feature constraint F then A2
/// > first checks whether c satisfies F to determine whether s is
/// > enabled. If it is, then A2 propagates flow to s's standard
/// > successors using the standard IFDS flow function defined for s. If c
/// > does not satisfy F then A2 uses the identity function to propagate
/// > intra-procedural flows to fall-through successor nodes only."
///
/// Disabled calls and returns use the kill-all function (no flow between
/// caller and callee), mirroring Fig. 4d.
///
/// A2 runs on the [`LiftedIcfg`] view (which has the disabled-return
/// fall-through edges) but needs only one parse and one call graph for
/// all configurations — that is its advantage over A1 and why the paper
/// uses it as the performance baseline in Table 2.
#[derive(Debug)]
pub struct A2Problem<'a, P> {
    problem: &'a P,
    config: &'a Configuration,
}

impl<'a, P> A2Problem<'a, P> {
    /// Specializes `problem` to `config`.
    pub fn new(problem: &'a P, config: &'a Configuration) -> Self {
        A2Problem { problem, config }
    }
}

/// Runs the full A2 analysis of `problem` for one configuration.
pub fn solve_a2<'g, G, P, D>(
    problem: &P,
    icfg: &LiftedIcfg<'g, G>,
    config: &Configuration,
) -> IfdsSolver<LiftedIcfg<'g, G>, D>
where
    G: AnnotatedIcfg,
    P: IfdsProblem<G, Fact = D>,
    D: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let a2 = A2Problem::new(problem, config);
    IfdsSolver::solve(&a2, icfg)
}

impl<'a, 'g, G, P> IfdsProblem<LiftedIcfg<'g, G>> for A2Problem<'a, P>
where
    G: AnnotatedIcfg,
    P: IfdsProblem<G>,
{
    type Fact = P::Fact;

    fn zero(&self) -> P::Fact {
        self.problem.zero()
    }

    fn flow_normal(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        curr: G::Stmt,
        succ: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        let inner = icfg.inner();
        let enabled = self.config.satisfies(&inner.annotation(curr));
        let fall_through = inner.fall_through_of(curr);
        let target = inner.branch_target_of(curr);

        if inner.is_exit(curr) {
            // Normal flow out of an exit exists only when it is disabled
            // (the synthetic fall-through edge).
            if !enabled && Some(succ) == fall_through {
                out.push(fact.clone());
            }
            return;
        }
        if !enabled {
            // Disabled: identity to the fall-through successor only.
            if Some(succ) == fall_through {
                out.push(fact.clone());
            }
            return;
        }
        if inner.is_unconditional_branch(curr) && Some(succ) != target {
            // Enabled goto: flow only to its target.
            return;
        }
        self.problem.flow_normal(inner, curr, succ, fact, out)
    }

    fn flow_call(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        callee: G::Method,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        let inner = icfg.inner();
        // A disabled call kills all: it never happens.
        if self.config.satisfies(&inner.annotation(call)) {
            self.problem.flow_call(inner, call, callee, fact, out)
        }
    }

    fn flow_return(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        let inner = icfg.inner();
        if self.config.satisfies(&inner.annotation(call))
            && self.config.satisfies(&inner.annotation(exit))
        {
            self.problem
                .flow_return(inner, call, callee, exit, return_site, fact, out)
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        let inner = icfg.inner();
        if self.config.satisfies(&inner.annotation(call)) {
            self.problem
                .flow_call_to_return(inner, call, return_site, fact, out)
        } else {
            out.push(fact.clone()); // the call is absent: identity
        }
    }

    fn initial_seeds(&self, icfg: &LiftedIcfg<'g, G>) -> Vec<(G::Stmt, P::Fact)> {
        self.problem.initial_seeds(icfg.inner())
    }
}
