//! The continuous-batching serving engine.
//!
//! An iteration-level scheduler in the vLLM/Orca mould, driven
//! entirely by simulated cycles: requests arrive on an open-loop
//! trace, wait in a FIFO admission queue, get batched into **prefill**
//! iterations (prompt processing, bounded by a token budget and free
//! decode slots), then generate one token per **decode** iteration
//! until done. Prefill has priority — a waiting request preempts the
//! next decode iteration, which is what keeps time-to-first-token
//! bounded under load. Iteration costs come from [`CostModel`], so
//! the baseline-vs-fused comparison inherits the paper's simulated
//! GEMM/collective timings, including fabric contention from
//! co-tenants.

use t3_sim::Cycle;
use t3_trace::{Event, Instruments};

use crate::cost::{CostModel, EngineMode};
use crate::request::{Request, RequestOutcome};

/// `kind` arg value of a prefill [`Event::ServeIteration`].
pub const ITER_KIND_PREFILL: u64 = 0;
/// `kind` arg value of a decode [`Event::ServeIteration`].
pub const ITER_KIND_DECODE: u64 = 1;

/// Engine scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Execution mode iterations are priced with.
    pub mode: EngineMode,
    /// Decode slots: maximum concurrently running sequences.
    pub max_batch: u64,
    /// Token budget of one prefill iteration (a request is always
    /// admitted alone if its prompt alone exceeds the budget).
    pub max_prefill_tokens: u64,
    /// Fabric contention factor from co-tenants (1000 = alone).
    pub contention_permille: u64,
}

impl EngineConfig {
    /// A reasonable default: 16 decode slots, 2048-token prefill
    /// budget, no co-tenants.
    pub fn with_mode(mode: EngineMode) -> Self {
        EngineConfig {
            mode,
            max_batch: 16,
            max_prefill_tokens: 2048,
            contention_permille: 1000,
        }
    }
}

/// Aggregate result of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRun {
    /// Per-request lifecycles, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Prefill iterations executed.
    pub prefill_iterations: u64,
    /// Decode iterations executed.
    pub decode_iterations: u64,
    /// Total tokens generated (decode output, first tokens included).
    pub generated_tokens: u64,
    /// Cycle the last request completed.
    pub makespan: Cycle,
}

/// A sequence occupying a decode slot.
#[derive(Debug, Clone, Copy)]
struct Running {
    req: Request,
    admitted: Cycle,
    first_token: Cycle,
    remaining: u64,
}

/// Runs the engine over `requests` (any order; scheduled in arrival
/// order with `(arrival, tenant, id)` tie-breaks) and returns every
/// request's lifecycle. Pass `ins` to record per-iteration and
/// per-request trace events.
///
/// # Panics
///
/// Panics if `cfg.max_batch` is zero or any request generates zero
/// tokens.
pub fn run_engine(
    cost: &mut CostModel,
    cfg: &EngineConfig,
    requests: &[Request],
    mut ins: Option<&mut Instruments>,
) -> EngineRun {
    assert!(cfg.max_batch > 0, "engine needs at least one decode slot");
    let mut pending: Vec<Request> = requests.to_vec();
    pending.sort_by_key(|r| (r.arrival, r.tenant, r.id));
    for r in &pending {
        assert!(r.output_tokens > 0, "request must generate tokens");
    }
    let mut next_pending = 0usize;
    let mut waiting: std::collections::VecDeque<Request> = std::collections::VecDeque::new();
    let mut running: Vec<Running> = Vec::new();
    let mut run = EngineRun {
        outcomes: Vec::with_capacity(pending.len()),
        prefill_iterations: 0,
        decode_iterations: 0,
        generated_tokens: 0,
        makespan: 0,
    };
    let mut now: Cycle = 0;
    loop {
        // Admit everything that has arrived by now into the FIFO.
        while next_pending < pending.len() && pending[next_pending].arrival <= now {
            waiting.push_back(pending[next_pending]);
            next_pending += 1;
        }
        let free_slots = (cfg.max_batch as usize).saturating_sub(running.len());
        if !waiting.is_empty() && free_slots > 0 {
            // Prefill iteration: fill free slots under the token
            // budget; the head request always gets in so oversized
            // prompts cannot starve.
            let mut batch: Vec<Request> = Vec::new();
            let mut batch_tokens = 0u64;
            while batch.len() < free_slots {
                let fits = |head: &mut Request| {
                    batch.is_empty() || batch_tokens + head.prompt_tokens <= cfg.max_prefill_tokens
                };
                let Some(r) = waiting.pop_front_if(fits) else {
                    break;
                };
                batch_tokens += r.prompt_tokens;
                batch.push(r);
            }
            let cycles = cost.iteration_cycles(cfg.mode, batch_tokens, cfg.contention_permille);
            let end = now + cycles;
            if let Some(i) = ins.as_deref_mut() {
                i.record(
                    end,
                    Event::ServeIteration {
                        kind: ITER_KIND_PREFILL,
                        batch: batch.len() as u64,
                        tokens: batch_tokens,
                        start: now,
                        end,
                    },
                );
            }
            run.prefill_iterations += 1;
            run.generated_tokens += batch.len() as u64;
            for req in batch {
                let seq = Running {
                    req,
                    admitted: now,
                    first_token: end,
                    remaining: req.output_tokens - 1,
                };
                if seq.remaining == 0 {
                    retire(&mut run, &seq, end, ins.as_deref_mut());
                } else {
                    running.push(seq);
                }
            }
            now = end;
        } else if !running.is_empty() {
            // Decode iteration: one token per running sequence.
            let batch = running.len() as u64;
            let cycles = cost.iteration_cycles(cfg.mode, batch, cfg.contention_permille);
            let end = now + cycles;
            if let Some(i) = ins.as_deref_mut() {
                i.record(
                    end,
                    Event::ServeIteration {
                        kind: ITER_KIND_DECODE,
                        batch,
                        tokens: batch,
                        start: now,
                        end,
                    },
                );
            }
            run.decode_iterations += 1;
            run.generated_tokens += batch;
            let mut still_running = Vec::with_capacity(running.len());
            for mut seq in running {
                seq.remaining -= 1;
                if seq.remaining == 0 {
                    retire(&mut run, &seq, end, ins.as_deref_mut());
                } else {
                    still_running.push(seq);
                }
            }
            running = still_running;
            now = end;
        } else if next_pending < pending.len() {
            // Idle: jump to the next arrival.
            now = pending[next_pending].arrival;
        } else {
            break;
        }
    }
    run
}

/// Records a completed request into the run (and the trace).
fn retire(run: &mut EngineRun, seq: &Running, end: Cycle, ins: Option<&mut Instruments>) {
    let outcome = RequestOutcome {
        request: seq.req,
        admitted: seq.admitted,
        first_token: seq.first_token,
        completed: end,
    };
    if let Some(i) = ins {
        i.record(
            end,
            Event::RequestLifecycle {
                id: seq.req.id,
                tenant: seq.req.tenant,
                prompt_tokens: seq.req.prompt_tokens,
                output_tokens: seq.req.output_tokens,
                admitted: seq.admitted,
                first_token: seq.first_token,
                start: seq.req.arrival,
                end,
            },
        );
    }
    run.makespan = run.makespan.max(end);
    run.outcomes.push(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate_requests, ArrivalKind, TrafficConfig};
    use t3_sim::config::SystemConfig;

    fn cost() -> CostModel {
        CostModel::new(&SystemConfig::paper_default(), 1024, 2, 8)
    }

    fn traffic(n: usize) -> Vec<Request> {
        generate_requests(
            &TrafficConfig {
                requests: n,
                arrival: ArrivalKind::Poisson,
                mean_gap_cycles: 200_000,
                token_divisor: 8,
            },
            0,
            99,
        )
    }

    #[test]
    fn every_request_completes_with_ordered_lifecycle() {
        let reqs = traffic(24);
        let mut c = cost();
        let run = run_engine(
            &mut c,
            &EngineConfig::with_mode(EngineMode::Baseline),
            &reqs,
            None,
        );
        assert_eq!(run.outcomes.len(), reqs.len());
        let expected_tokens: u64 = reqs.iter().map(|r| r.output_tokens).sum();
        assert_eq!(run.generated_tokens, expected_tokens);
        for o in &run.outcomes {
            assert!(o.request.arrival <= o.admitted);
            assert!(o.admitted < o.first_token, "prefill takes time");
            assert!(o.first_token <= o.completed);
            assert!(o.completed <= run.makespan);
            if o.request.output_tokens > 1 {
                assert!(o.first_token < o.completed, "decode takes time");
            }
        }
        assert!(run.prefill_iterations > 0 && run.decode_iterations > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let reqs = traffic(16);
        let cfg = EngineConfig::with_mode(EngineMode::Fused);
        let a = run_engine(&mut cost(), &cfg, &reqs, None);
        let b = run_engine(&mut cost(), &cfg, &reqs, None);
        assert_eq!(a, b);
    }

    #[test]
    fn fused_completes_no_later_and_wins_somewhere() {
        let reqs = traffic(24);
        let base = run_engine(
            &mut cost(),
            &EngineConfig::with_mode(EngineMode::Baseline),
            &reqs,
            None,
        );
        let fused = run_engine(
            &mut cost(),
            &EngineConfig::with_mode(EngineMode::Fused),
            &reqs,
            None,
        );
        assert!(fused.makespan < base.makespan);
        let e2e =
            |run: &EngineRun| -> u64 { run.outcomes.iter().map(|o| o.e2e_cycles()).sum::<u64>() };
        assert!(e2e(&fused) < e2e(&base), "fused must cut total latency");
    }

    #[test]
    fn batch_cap_is_respected_via_iteration_counts() {
        // One decode slot: every request prefills alone and decodes
        // alone, so iteration counts are exactly determined.
        let reqs = traffic(6);
        let mut cfg = EngineConfig::with_mode(EngineMode::Baseline);
        cfg.max_batch = 1;
        let run = run_engine(&mut cost(), &cfg, &reqs, None);
        assert_eq!(run.prefill_iterations, 6);
        let decode_tokens: u64 = reqs.iter().map(|r| r.output_tokens - 1).sum();
        assert_eq!(run.decode_iterations, decode_tokens);
    }

    #[test]
    fn prefill_admission_is_fifo_under_the_token_budget() {
        let mut reqs = traffic(10);
        for r in &mut reqs {
            r.arrival /= 16; // arrivals bunch up and queue
        }
        reqs[0].prompt_tokens = 5000; // an oversized head request
        let mut cfg = EngineConfig::with_mode(EngineMode::Baseline);
        cfg.max_batch = 4;
        cfg.max_prefill_tokens = 150;
        let run = run_engine(&mut cost(), &cfg, &reqs, None);
        // Prefill batches, in admission order, as request ids.
        let mut admitted: Vec<&RequestOutcome> = run.outcomes.iter().collect();
        admitted.sort_by_key(|o| (o.admitted, o.request.id));
        let mut batches: Vec<Vec<u64>> = Vec::new();
        for (i, o) in admitted.iter().enumerate() {
            if i == 0 || admitted[i - 1].admitted != o.admitted {
                batches.push(Vec::new());
            }
            batches.last_mut().expect("pushed").push(o.request.id);
        }
        let mut fifo = reqs.clone();
        fifo.sort_by_key(|r| (r.arrival, r.tenant, r.id));
        let order: Vec<u64> = batches.iter().flatten().copied().collect();
        assert_eq!(order, fifo.iter().map(|r| r.id).collect::<Vec<_>>());
        for b in &batches {
            let tokens: u64 = b.iter().map(|&id| reqs[id as usize].prompt_tokens).sum();
            assert!(b.len() == 1 || tokens <= cfg.max_prefill_tokens, "{b:?}");
            assert!(b.len() as u64 <= cfg.max_batch);
        }
        // The oversized head prefills alone; 46 + 98 + 26 tokens would
        // overrun the budget, so request 3 waits for the next batch.
        assert_eq!(
            batches,
            vec![
                vec![0],
                vec![1, 2],
                vec![3],
                vec![4, 5, 6],
                vec![7, 8],
                vec![9]
            ]
        );
        assert_eq!(run.prefill_iterations, batches.len() as u64);
    }

    #[test]
    fn traces_cover_every_request_and_iteration() {
        let reqs = traffic(8);
        let mut ins = Instruments::full();
        let run = run_engine(
            &mut cost(),
            &EngineConfig::with_mode(EngineMode::Fused),
            &reqs,
            Some(&mut ins),
        );
        let records = ins.tracer.as_ref().expect("tracer on").records();
        let iters = records
            .iter()
            .filter(|r| matches!(r.event, Event::ServeIteration { .. }))
            .count() as u64;
        let lives = records
            .iter()
            .filter(|r| matches!(r.event, Event::RequestLifecycle { .. }))
            .count();
        assert_eq!(iters, run.prefill_iterations + run.decode_iterations);
        assert_eq!(lives, reqs.len());
    }

    #[test]
    fn single_token_requests_complete_at_prefill() {
        let mut reqs = traffic(4);
        for r in &mut reqs {
            r.output_tokens = 1;
        }
        let run = run_engine(
            &mut cost(),
            &EngineConfig::with_mode(EngineMode::Baseline),
            &reqs,
            None,
        );
        assert_eq!(run.decode_iterations, 0);
        for o in &run.outcomes {
            assert_eq!(o.first_token, o.completed);
        }
    }
}
