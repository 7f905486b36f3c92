//! Independent enumeration of context schedules.
//!
//! The checker's exploration DFS and its [`count_schedules`] walk the
//! schedule lattice through [`GuardInfo::extensions`], with
//! bit-twiddled subset iteration; this module re-derives the same chain
//! language with plain recursive set manipulation from [`GuardInfo`]'s
//! *raw data* (`implies`, `initially_possible`, `raisers`) — none of
//! its helper methods are called. The tests in `tests/schedule_pin.rs`
//! pin the two implementations against each other, and
//! [`observed_context_chains`] closes the loop from the concrete side:
//! every context chain realised by an actual run of the counter system
//! must appear in the enumerated set.
//!
//! [`count_schedules`]: holistic_checker::count_schedules

use std::collections::BTreeSet;

use holistic_checker::GuardInfo;
use holistic_ta::{Config, ThresholdAutomaton};

use crate::concrete::{ConcreteError, ConcreteSystem};

/// Whether `ctx` is closed under the implication relation: every guard
/// implied by a member is itself a member.
fn closed(info: &GuardInfo, ctx: u64) -> bool {
    (0..info.guards.len())
        .filter(|&g| ctx & (1 << g) != 0)
        .all(|g| info.implies[g] & !ctx == 0)
}

/// Whether firing rules available under `ctx` can newly raise exactly
/// the guards in `set`: some rule whose guard needs only `ctx` must
/// update a variable of every guard in `set`.
fn can_raise(info: &GuardInfo, set: u64, ctx: u64) -> bool {
    info.raisers
        .iter()
        .any(|&(needs, raises)| needs & !ctx == 0 && set & !raises == 0)
}

/// All subsets of the guard indices in `from` (as masks), including the
/// empty set — built by plain recursion over the index list.
fn subsets(from: &[usize]) -> Vec<u64> {
    let mut out = vec![0u64];
    for &g in from {
        let bit = 1u64 << g;
        let prior = out.clone();
        out.extend(prior.into_iter().map(|m| m | bit));
    }
    out
}

/// Enumerates every context schedule of `info` as an explicit chain of
/// context masks, capped at `cap` chains. Returns the chains and
/// whether the cap was hit.
///
/// A chain is a strictly increasing sequence of implication-closed
/// contexts: it starts at any closed subset of the initially-possible
/// guards, and each step adds a non-empty raisable set of new guards
/// while staying closed. Every prefix is itself a schedule, so it
/// appears in the output in its own right.
pub fn enumerate_context_chains(info: &GuardInfo, cap: usize) -> (Vec<Vec<u64>>, bool) {
    let all_guards: Vec<usize> = (0..info.guards.len()).collect();
    let initial_guards: Vec<usize> = all_guards
        .iter()
        .copied()
        .filter(|&g| info.initially_possible & (1 << g) != 0)
        .collect();
    let mut chains: Vec<Vec<u64>> = Vec::new();
    let mut capped = false;
    for start in subsets(&initial_guards) {
        if !closed(info, start) {
            continue;
        }
        extend_chain(
            info,
            &all_guards,
            vec![start],
            &mut chains,
            cap,
            &mut capped,
        );
        if capped {
            break;
        }
    }
    (chains, capped)
}

fn extend_chain(
    info: &GuardInfo,
    all_guards: &[usize],
    chain: Vec<u64>,
    chains: &mut Vec<Vec<u64>>,
    cap: usize,
    capped: &mut bool,
) {
    if chains.len() >= cap {
        *capped = true;
        return;
    }
    let current = *chain.last().unwrap();
    chains.push(chain.clone());
    let remaining: Vec<usize> = all_guards
        .iter()
        .copied()
        .filter(|&g| current & (1 << g) == 0)
        .collect();
    for step in subsets(&remaining) {
        if step == 0 {
            continue;
        }
        if !can_raise(info, step, current) || !closed(info, current | step) {
            continue;
        }
        let mut next = chain.clone();
        next.push(current | step);
        extend_chain(info, all_guards, next, chains, cap, capped);
        if *capped {
            return;
        }
    }
}

/// The context of a configuration: the set of guards concretely true
/// under its shared-variable values.
fn context_of(info: &GuardInfo, config: &Config, params: &[i64]) -> u64 {
    let mut ctx = 0u64;
    for (g, atom) in info.guards.iter().enumerate() {
        if crate::concrete::eval_var_expr(&atom.lhs, &config.shared)
            >= crate::concrete::eval_param_expr(&atom.rhs, params)
        {
            ctx |= 1 << g;
        }
    }
    ctx
}

/// Collects every context chain realised by a concrete run of the
/// counter system at `params`, by depth-first search over
/// `(configuration, chain)` states, capped at `max_states` expansions.
/// Returns the chain set and whether the search was exhaustive.
///
/// # Errors
///
/// [`ConcreteError`] when the valuation is inadmissible.
pub fn observed_context_chains(
    ta: &ThresholdAutomaton,
    info: &GuardInfo,
    params: &[i64],
    max_states: usize,
) -> Result<(BTreeSet<Vec<u64>>, bool), ConcreteError> {
    let sys = ConcreteSystem::new(ta, params)?;
    let mut chains: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut seen: BTreeSet<(Vec<i64>, Vec<i64>, Vec<u64>)> = BTreeSet::new();
    let mut stack: Vec<(Config, Vec<u64>)> = Vec::new();
    let mut complete = true;
    for init in sys.initial_configs() {
        let chain = vec![context_of(info, &init, params)];
        stack.push((init, chain));
    }
    let mut expansions = 0usize;
    while let Some((config, chain)) = stack.pop() {
        if !seen.insert((
            config.counters.clone(),
            config.shared.clone(),
            chain.clone(),
        )) {
            continue;
        }
        chains.insert(chain.clone());
        expansions += 1;
        if expansions >= max_states {
            complete = false;
            break;
        }
        for (_, succ) in sys.successors(&config) {
            let ctx = context_of(info, &succ, params);
            let mut next = chain.clone();
            if ctx != *next.last().unwrap() {
                next.push(ctx);
            }
            stack.push((succ, next));
        }
    }
    Ok((chains, complete))
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_checker::count_schedules;
    use holistic_models::BvBroadcastModel;

    /// The checker's lattice as explicit chains, in its DFS preorder.
    fn checker_chains(info: &GuardInfo) -> Vec<Vec<u64>> {
        fn walk(info: &GuardInfo, chain: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
            out.push(chain.clone());
            for next in info.extensions(*chain.last().unwrap()) {
                chain.push(next);
                walk(info, chain, out);
                chain.pop();
            }
        }
        let mut out = Vec::new();
        for ctx in info.initial_contexts() {
            walk(info, &mut vec![ctx], &mut out);
        }
        out
    }

    #[test]
    fn bv_broadcast_chain_count_matches_checker() {
        let model = BvBroadcastModel::new();
        let info = GuardInfo::analyse(&model.ta).unwrap();
        let (chains, capped) = enumerate_context_chains(&info, 1_000_000);
        assert!(!capped);
        let (count, counting_capped) = count_schedules(&info, 1_000_000);
        assert!(!counting_capped);
        assert_eq!(chains.len(), count);
        // And the chains themselves coincide with the ones the
        // checker's step relation generates, as sets.
        let mut ours = chains;
        ours.sort();
        let mut theirs = checker_chains(&info);
        theirs.sort();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn observed_chains_are_enumerated_chains() {
        let model = BvBroadcastModel::new();
        let info = GuardInfo::analyse(&model.ta).unwrap();
        let (chains, capped) = enumerate_context_chains(&info, 1_000_000);
        assert!(!capped);
        let enumerated: BTreeSet<Vec<u64>> = chains.into_iter().collect();
        let (observed, complete) =
            observed_context_chains(&model.ta, &info, &[4, 1, 1], 2_000_000).unwrap();
        assert!(complete);
        assert!(!observed.is_empty());
        for chain in &observed {
            assert!(
                enumerated.contains(chain),
                "concrete run realised a chain the checker does not enumerate: {chain:?}"
            );
        }
    }
}
