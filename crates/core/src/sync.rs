//! Cross-shard saturation sync: deterministic epoch barriers that give a
//! sharded search back the sequential run's directed-search feedback.
//!
//! The sharded search of [`crate::shard`] trades feedback for parallelism:
//! every shard refines only its *own* saturation snapshot, so at high shard
//! counts each shard burns rounds minimizing distances to branches a
//! sibling already covered (Definition 4.2's retargeting never sees the
//! siblings' progress). This module restores that feedback at a chosen
//! granularity without giving the parallelism back.
//!
//! # The epoch plan
//!
//! A [`SyncPlan`] cuts the global round schedule `[0, n_start)` into
//! `sync_epochs` contiguous windows (as even as integer division allows).
//! Within one epoch every shard runs the rounds of its strided slice that
//! fall in the window — independent, embarrassingly parallel work, exactly
//! as before. At the boundary between epochs the shards rendezvous and
//! exchange [`SaturationDelta`]s: each still-active shard absorbs every
//! sibling's covered/descendant/infeasible knowledge, so its next rounds
//! minimize against the *union* snapshot — and a shard whose union
//! saturates everything exits immediately, spending no further
//! evaluations.
//!
//! The plan is a pure function of `(n_start, shards, sync_epochs)` and the
//! exchange is a union of commutative, idempotent deltas
//! ([`SaturationTracker::apply_delta`](crate::saturation::SaturationTracker::apply_delta)),
//! so the result is **deterministic per `(seed, shards, sync_epochs)`** —
//! independent of worker count, scheduling, or delta arrival order. This
//! module holds only the plan and the exchange ([`exchange_deltas`]); the
//! one executor of [`crate::campaign`] runs the epochs, for campaigns and
//! for standalone [`CoverMe`](crate::CoverMe) runs alike.
//!
//! With `sync_epochs <= 1` there are no barriers and the search is
//! bit-identical to the pre-sync path (pinned by
//! `tests/sync_properties.rs`).
//!
//! # Warm starts
//!
//! A corpus warm start ([`CoverMeConfig::warm_start`]) composes with the
//! plan without touching it: each shard replays the corpus inputs and
//! verdicts inside its *first* `run_rounds` slice, before any scheduled
//! round, so replayed evaluations are charged to that epoch's ledger and
//! the exchange protocol sees replay-covered branches exactly like
//! round-covered ones. Determinism per `(seed, shards, sync_epochs)` is
//! preserved — the replay is itself a deterministic prefix — which is
//! what lets the corpus grant a schedule credit
//! ([`crate::driver::WarmStart::prior_coverage`]) even to sharded, synced
//! searches (pinned by `warm_started_synced_runs_stay_deterministic` in
//! `tests/sync_properties.rs`).

use coverme_runtime::Program;

use crate::driver::{CoverMeConfig, SearchState};
use crate::saturation::SaturationDelta;

/// The deterministic epoch schedule of one synced search — a pure function
/// of `(n_start, shards, sync_epochs)`, never of scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPlan {
    n_start: usize,
    shards: usize,
    epochs: usize,
}

impl SyncPlan {
    /// Builds the plan a run of `config` follows (shard count and epoch
    /// count resolved through
    /// [`effective_shards`](CoverMeConfig::effective_shards) /
    /// [`effective_sync_epochs`](CoverMeConfig::effective_sync_epochs)).
    pub fn new(config: &CoverMeConfig) -> SyncPlan {
        SyncPlan {
            n_start: config.n_start,
            shards: config.effective_shards(),
            epochs: config.effective_sync_epochs(),
        }
    }

    /// Number of epochs (1 = no barriers, the pre-sync behavior).
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Number of shards the plan schedules.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Exclusive end of epoch `epoch`'s global-round window. Windows
    /// partition `[0, n_start)`; the last window absorbs the remainder.
    fn window_end(&self, epoch: usize) -> usize {
        if epoch + 1 >= self.epochs {
            self.n_start
        } else {
            (epoch + 1) * self.n_start / self.epochs
        }
    }

    /// How many rounds shard `shard`'s strided slice owns within epoch
    /// `epoch`'s window — the quota handed to
    /// [`SearchState::run_rounds`] for that epoch.
    pub fn rounds_in_epoch(&self, shard: usize, epoch: usize) -> usize {
        let lo = if epoch == 0 {
            0
        } else {
            self.window_end(epoch - 1)
        };
        let hi = self.window_end(epoch);
        strided_count(lo, hi, shard, self.shards)
    }
}

/// Number of integers `r` in `[lo, hi)` with `r ≡ shard (mod shards)`.
fn strided_count(lo: usize, hi: usize, shard: usize, shards: usize) -> usize {
    let below = |x: usize| {
        if x <= shard {
            0
        } else {
            (x - shard - 1) / shards + 1
        }
    };
    below(hi) - below(lo)
}

/// The rendezvous exchange. `states` and `published` are parallel arrays
/// indexed by shard: each present state whose tracker `version` moved
/// since its last publication refreshes its slot with a fresh
/// [`SaturationDelta`] (an idle or finished shard skips the re-broadcast
/// — the cached delta describes the same state), then every still-active
/// state absorbs the deltas *refreshed at this rendezvous*. Skipping the
/// unrefreshed slots is sound because every state present here has been
/// present (and absorbing) since the first rendezvous, so a slot last
/// refreshed earlier was already absorbed then — re-applying it would be
/// an idempotent no-op. Finished states absorb nothing — their search is
/// over, and mutating their snapshot would change the merged report
/// depending on *when* they finished, breaking worker-count determinism.
/// Apply order is irrelevant (deltas are commutative and idempotent).
pub(crate) fn exchange_deltas<P: Program>(
    states: &mut [Option<SearchState<'_, P>>],
    published: &mut [Option<SaturationDelta>],
) {
    debug_assert_eq!(states.len(), published.len());
    // A slot is stale when its shard's tracker moved past the published
    // version (a `None` slot at the first rendezvous is always stale).
    let mut stale = vec![false; states.len()];
    for ((slot, state), refresh) in published.iter_mut().zip(states.iter()).zip(&mut stale) {
        let Some(state) = state else { continue };
        if slot.as_ref().map(|delta| delta.version) != Some(state.tracker().version()) {
            *slot = Some(state.extract_delta());
            *refresh = true;
        }
    }
    for (index, state) in states.iter_mut().enumerate() {
        let Some(state) = state.as_mut().filter(|state| !state.is_finished()) else {
            continue;
        };
        for (peer, delta) in published.iter().enumerate() {
            if peer != index && stale[peer] {
                state.absorb_delta(delta.as_ref().expect("stale slots were refreshed"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::InfeasiblePolicy;
    use crate::{CoverMe, CoverMeConfig};
    use coverme_runtime::{Cmp, ExecCtx, FnProgram};

    /// The paper's Fig. 3 example program.
    fn paper_example() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("FOO", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 2.5;
            }
            let y = x * x;
            if ctx.branch(1, Cmp::Eq, y, 4.0) {
                // target
            }
        })
    }

    fn config(shards: usize, sync_epochs: usize) -> CoverMeConfig {
        CoverMeConfig::default()
            .with_n_start(64)
            .with_n_iter(5)
            .with_seed(11)
            .with_shards(shards)
            .with_sync_epochs(sync_epochs)
    }

    #[test]
    fn plan_windows_partition_the_budget() {
        for n_start in [1usize, 7, 48, 80, 500] {
            for shards in 1..=5usize {
                for epochs in 1..=6usize {
                    let plan = SyncPlan {
                        n_start,
                        shards,
                        epochs,
                    };
                    let mut total = 0usize;
                    for shard in 0..shards {
                        let per_shard: usize =
                            (0..epochs).map(|e| plan.rounds_in_epoch(shard, e)).sum();
                        let expected = strided_count(0, n_start, shard, shards);
                        assert_eq!(per_shard, expected, "{n_start}/{shards}/{epochs}/{shard}");
                        total += per_shard;
                    }
                    assert_eq!(total, n_start, "{n_start}/{shards}/{epochs}");
                }
            }
        }
    }

    #[test]
    fn strided_count_matches_enumeration() {
        for lo in 0..12usize {
            for hi in lo..14usize {
                for shards in 1..=4usize {
                    for shard in 0..shards {
                        let expected = (lo..hi).filter(|r| r % shards == shard).count();
                        assert_eq!(strided_count(lo, hi, shard, shards), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_and_parallel_synced_runs_agree() {
        let program = paper_example();
        let sequential = CoverMe::new(config(4, 4)).run(&program);
        let parallel = CoverMe::new(config(4, 4)).run_parallel(&program);
        assert_eq!(sequential.inputs, parallel.inputs);
        assert_eq!(sequential.coverage, parallel.coverage);
        assert_eq!(sequential.evaluations, parallel.evaluations);
        assert_eq!(sequential.rounds, parallel.rounds);
    }

    #[test]
    fn coverme_run_routes_sync_and_stays_deterministic() {
        let program = paper_example();
        let a = CoverMe::new(config(3, 4)).run(&program);
        let b = CoverMe::new(config(3, 4)).run(&program);
        let c = CoverMe::new(config(3, 4)).run_parallel(&program);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.inputs, c.inputs);
        assert_eq!(a.coverage, c.coverage);
        assert_eq!(a.evaluations, c.evaluations);
        assert_eq!(a.branch_coverage_percent(), 100.0, "{a}");
    }

    #[test]
    fn sync_epochs_one_matches_the_presync_path() {
        let program = paper_example();
        let synced = CoverMe::new(config(3, 1)).run(&program);
        let presync = CoverMe::new(config(3, 0)).run(&program);
        assert_eq!(synced.inputs, presync.inputs);
        assert_eq!(synced.coverage, presync.coverage);
        assert_eq!(synced.evaluations, presync.evaluations);
    }

    #[test]
    fn absorbed_saturation_short_circuits_a_shard() {
        // The eval-savings mechanism of the sync layer, in isolation: a
        // shard whose absorbed union saturates everything exits without
        // spending a single evaluation on its own slice.
        let program = paper_example();
        let cfg = config(2, 4);
        let mut a = crate::SearchState::new(&cfg, &program, 0);
        a.run_to_exhaustion();
        assert!(a.tracker().all_saturated(), "shard 0 saturates the example");
        let mut b = crate::SearchState::new(&cfg, &program, 1);
        b.absorb_delta(&a.extract_delta());
        assert_eq!(b.run_rounds(usize::MAX), crate::EpochOutcome::Saturated);
        assert_eq!(b.evaluations(), 0, "no evals after absorbed saturation");
        assert_eq!(b.rounds_run(), 0);
        // Without the delta the same shard burns real rounds on branches
        // its sibling already saturated.
        let blind = crate::shard::run_shard(&cfg, &program, 1);
        assert!(blind.evaluations > 0);
    }

    /// A program no shard can saturate (the `y == -1` branch is infeasible
    /// and the heuristic is disabled), so every shard runs every epoch —
    /// exercising all barriers.
    fn unsaturable_example() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("FOO_INF", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 1.0;
            }
            let y = x * x;
            if ctx.branch(1, Cmp::Eq, y, -1.0) {
                // unreachable
            }
        })
    }

    #[test]
    fn raw_shard_counts_are_normalized_like_everywhere_else() {
        // shards = 4 with n_start = 32 clamps to 2 effective shards; the
        // states must stride by the clamped count too (regression: they
        // used to stride by the raw count, silently dropping half the
        // rounds).
        let program = unsaturable_example();
        let cfg = CoverMeConfig::default()
            .with_n_start(32)
            .with_n_iter(3)
            .with_seed(5)
            .with_shards(4)
            .with_sync_epochs(2)
            .with_infeasible_policy(InfeasiblePolicy::Disabled);
        let sequential = CoverMe::new(cfg.clone()).run(&program);
        assert_eq!(sequential.rounds.len(), 32, "every scheduled round ran");
        let parallel = CoverMe::new(cfg).run_parallel(&program);
        assert_eq!(parallel.rounds, sequential.rounds);
    }

    #[test]
    fn delta_fast_path_is_invisible_in_outcomes() {
        // The stale-slot fast path (skip rebuilding/reapplying unchanged
        // deltas) must not change any reported outcome relative to what
        // the search learns — pin the full report fingerprint across
        // worker counts on a program that exercises idle rendezvous.
        let program = unsaturable_example();
        let cfg = CoverMeConfig::default()
            .with_n_start(48)
            .with_n_iter(3)
            .with_seed(23)
            .with_shards(3)
            .with_sync_epochs(6)
            .with_infeasible_policy(InfeasiblePolicy::Disabled);
        let sequential = CoverMe::new(cfg.clone()).run(&program);
        let parallel = CoverMe::new(cfg).run_parallel(&program);
        assert_eq!(sequential.inputs, parallel.inputs);
        assert_eq!(sequential.evaluations, parallel.evaluations);
        assert_eq!(sequential.rounds, parallel.rounds);
        assert_eq!(sequential.epochs, parallel.epochs);
    }

    #[test]
    fn synced_report_carries_per_epoch_telemetry() {
        let program = unsaturable_example();
        let cfg = config(4, 4).with_infeasible_policy(InfeasiblePolicy::Disabled);
        let report = CoverMe::new(cfg).run(&program);
        assert!(report.epochs.len() > 1, "sync run has multiple epochs");
        let total_rounds: usize = report.epochs.iter().map(|e| e.rounds).sum();
        assert_eq!(total_rounds, report.rounds.len());
        let total_evals: usize = report.epochs.iter().map(|e| e.evaluations).sum();
        assert_eq!(total_evals, report.evaluations);
        // Epoch indices are dense and ordered.
        for (index, epoch) in report.epochs.iter().enumerate() {
            assert_eq!(epoch.epoch, index);
        }
        // Every rendezvous exchanged deltas among the 4 still-active shards.
        assert!(report.epochs.iter().skip(1).any(|e| e.deltas_absorbed > 0));
    }
}
