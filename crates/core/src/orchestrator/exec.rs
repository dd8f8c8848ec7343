//! Work-stealing sweep execution with canonical reduction.
//!
//! The run population of a real sweep is wildly uneven — a 180-minute-TTL
//! 200-vehicle run costs orders of magnitude more than a 60-minute
//! 12-vehicle one — so a static `par_iter` split serialises on whichever
//! worker drew the expensive tail. Here runs are sorted by descending cost
//! estimate, grouped into chunks, and claimed by workers through one atomic
//! cursor: a worker that finishes early steals the next unclaimed chunk
//! instead of idling (the irregular-wavefront dispatch pattern).
//!
//! **Determinism rule:** execution order is a scheduling detail; *reduction
//! order is canonical*. Every finished run's [`RunRecord`] is kept under
//! its run ID, and after the workers finish the records are folded into
//! [`CellAccumulator`]s strictly in plan order. Aggregates are therefore
//! bit-identical at any thread count and across kill/resume.
//!
//! The cursor/slot/abort loop is one helper, `fan_out`, which
//! [`crate::sweep::run_sweep`] also uses for plain scenario lists. It is
//! the only place the simulator runs threads: a single run is one serial
//! event engine, and parallelism pays between independent runs.

use super::accum::{CellAccumulator, RunRecord};
use super::journal::{replay_journal, JournalWriter};
use super::manifest::{CellKey, SweepManifest};
use crate::engine::World;
use crate::sweep::{default_threads, SweepError, SweepPoint};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Execution knobs for [`run_manifest`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0: `VDTN_THREADS` when it is a positive integer,
    /// otherwise the host's available parallelism). At most one worker per
    /// chunk is spawned, so a huge value costs nothing. Chunks hold
    /// `ceil(pending / (8 · threads))` runs, clamped to 1..=32.
    pub threads: usize,
    /// Journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at `journal` before executing the
    /// remainder. A missing journal file degrades to a cold start. The
    /// journal resumes at run granularity: a killed sweep re-executes its
    /// in-flight runs from scratch.
    pub resume: bool,
}

/// What a sweep produced, plus enough bookkeeping to reason about resume
/// and throughput. Only `points`/`cells` are aggregate *data*; everything
/// else (notably `wall_secs`) is measurement and excluded from identity
/// comparisons.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One figure point per cell, in canonical cell order.
    pub points: Vec<SweepPoint>,
    /// The cells, parallel to `points`.
    pub cells: Vec<CellKey>,
    /// Runs in the expanded plan.
    pub runs_total: usize,
    /// Runs executed this invocation.
    pub runs_executed: usize,
    /// Runs replayed from the journal.
    pub runs_replayed: usize,
    /// Work-stealing chunks executed.
    pub chunks: usize,
    /// Worker threads spawned: the requested count, capped at `chunks`.
    pub threads: usize,
    /// Wall-clock seconds of the execute+reduce phase (measurement only).
    pub wall_secs: f64,
}

/// Execute a manifest: the only way to run a sweep, so every run is fixed
/// by the fingerprinted manifest.
///
/// Expansion → journal replay (resume) → work-stealing execution of the
/// remainder (checkpointing each finished chunk) → canonical reduce.
pub fn run_manifest(
    manifest: &SweepManifest,
    opts: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    let start = Instant::now();
    let plan = manifest.expand()?;
    let fnv = manifest.fingerprint();
    let threads = if opts.threads == 0 {
        default_threads()
    } else {
        opts.threads
    };

    // Phase 1: replay. `done` maps run ID → finished record.
    let mut done: HashMap<String, RunRecord> = HashMap::new();
    let mut journal: Option<Mutex<JournalWriter>> = None;
    if let Some(path) = &opts.journal {
        if opts.resume && path.exists() {
            let replay = replay_journal(path)?;
            if replay.header.manifest_fnv != fnv {
                return Err(SweepError::Journal {
                    detail: format!(
                        "journal belongs to a different manifest \
                         (fnv {:#x}, expected {:#x})",
                        replay.header.manifest_fnv, fnv
                    ),
                });
            }
            if replay.header.runs != plan.len() as u64 {
                return Err(SweepError::Journal {
                    detail: format!(
                        "journal plan size {} != expanded plan size {}",
                        replay.header.runs,
                        plan.len()
                    ),
                });
            }
            for rec in replay.records {
                done.insert(rec.id.clone(), rec);
            }
            journal = Some(Mutex::new(JournalWriter::resume(path, replay.valid_bytes)?));
        } else {
            journal = Some(Mutex::new(JournalWriter::create(
                path,
                fnv,
                plan.len() as u64,
            )?));
        }
    }

    // Phase 2: schedule. Pending runs sorted by descending cost estimate
    // (ties broken by plan position, so the schedule is deterministic),
    // then grouped into chunks claimed via an atomic cursor.
    let base_vehicles = manifest.base_vehicles();
    let mut pending: Vec<usize> = (0..plan.len())
        .filter(|&i| !done.contains_key(&plan.runs[i].id(&plan.name)))
        .collect();
    pending.sort_by_key(|&i| (Reverse(plan.runs[i].cost(base_vehicles)), i));
    let chunk_size = pending
        .len()
        .div_ceil(threads.saturating_mul(8))
        .clamp(1, 32);
    let chunks: Vec<&[usize]> = pending.chunks(chunk_size).collect();

    // Phase 3: execute. Workers steal chunks; each finished chunk commits
    // its records (fsync'd) to the journal before it counts as done, and
    // joins the replayed records in `done`.
    let run_chunk = |k: usize| -> Result<Vec<RunRecord>, SweepError> {
        let mut batch = Vec::with_capacity(chunks[k].len());
        for &i in chunks[k] {
            let spec = &plan.runs[i];
            let report = World::build(&spec.scenario(manifest)).run();
            batch.push(RunRecord::from_report(&spec.id(&plan.name), &report));
        }
        if let Some(j) = &journal {
            j.lock().expect("journal lock").append_chunk(&batch)?;
        }
        Ok(batch)
    };
    let (batches, workers) = fan_out(chunks.len(), threads, run_chunk)?;
    for rec in batches.into_iter().flatten() {
        done.insert(rec.id.clone(), rec);
    }

    // Phase 4: canonical reduce, strictly in plan order — the step that
    // makes aggregates independent of scheduling and of resume history.
    let mut accs: Vec<CellAccumulator> = plan
        .cells
        .iter()
        .map(|c| CellAccumulator::new(&c.label(), c.ttl_mins as f64))
        .collect();
    for spec in &plan.runs {
        let rec = done
            .get(&spec.id(&plan.name))
            .expect("every planned run is executed or replayed");
        accs[spec.cell].push_record(rec);
    }

    Ok(SweepOutcome {
        points: accs.iter().map(|a| a.finish()).collect(),
        cells: plan.cells.clone(),
        runs_total: plan.len(),
        runs_executed: pending.len(),
        runs_replayed: plan.len() - pending.len(),
        chunks: chunks.len(),
        threads: workers,
        wall_secs: start.elapsed().as_secs_f64(),
    })
}

/// Run `job(k)` for every `k` in `0..jobs` on up to `threads` scoped
/// workers that claim indices through one atomic cursor; the calling
/// thread is one of them, so a single worker spawns no thread. Returns the
/// results in index order together with the number of workers used. After
/// the first error no worker claims another index, and that error is
/// returned.
pub(crate) fn fan_out<T: Send, E: Send>(
    jobs: usize,
    threads: usize,
    job: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<(Vec<T>, usize), E> {
    let workers = threads.min(jobs);
    // The atomics publish no data: results and the error travel through
    // mutexes, and the scope's join orders them before the reads below.
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<E>> = Mutex::new(None);
    let work = || {
        while !abort.load(Ordering::Relaxed) {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= jobs {
                break;
            }
            match job(k) {
                Ok(v) => slots.lock().expect("slots lock")[k] = Some(v),
                Err(e) => {
                    error.lock().expect("error lock").get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        if workers > 0 {
            work();
        }
    });
    if let Some(e) = error.into_inner().expect("error lock") {
        return Err(e);
    }
    let results = slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect();
    Ok((results, workers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::PaperProtocol;
    use crate::scenario::Scenario;
    use crate::sweep::{average_reports, run_sweep};

    fn tiny_manifest() -> SweepManifest {
        let mut m = SweepManifest::paper(
            "tiny",
            &[PaperProtocol::EpidemicFifo, PaperProtocol::EpidemicLifetime],
            &[30, 60],
            &[1, 2, 3],
        );
        m.base = super::super::manifest::ScenarioBase::Mini;
        m.duration_secs = 600.0;
        m
    }

    fn canon_points(o: &SweepOutcome) -> String {
        serde_json::to_string(&o.points).expect("points serialise")
    }

    #[test]
    fn orchestrator_matches_run_sweep_plus_average_reports() {
        let m = tiny_manifest();
        let plan = m.expand().unwrap();
        let outcome = run_manifest(&m, &SweepOptions::default()).unwrap();
        assert_eq!(outcome.runs_total, 12);
        assert_eq!(outcome.runs_executed, 12);
        assert_eq!(outcome.points.len(), 4);

        // Reference path: materialise every report, average per cell.
        let scenarios: Vec<Scenario> = plan.runs.iter().map(|r| r.scenario(&m)).collect();
        let reports = run_sweep(&scenarios);
        for (c, cell) in plan.cells.iter().enumerate() {
            let cell_reports: Vec<_> = plan
                .runs
                .iter()
                .zip(&reports)
                .filter(|(r, _)| r.cell == c)
                .map(|(_, rep)| rep.clone())
                .collect();
            let reference = average_reports(&cell.label(), &cell_reports).unwrap();
            let a = serde_json::to_string(&reference).unwrap();
            let b = serde_json::to_string(&outcome.points[c]).unwrap();
            assert_eq!(a, b, "cell {c} ({})", cell.label());
        }
    }

    #[test]
    fn aggregates_invariant_across_threads() {
        let m = tiny_manifest();
        let baseline = canon_points(
            &run_manifest(
                &m,
                &SweepOptions {
                    threads: 1,
                    ..SweepOptions::default()
                },
            )
            .unwrap(),
        );
        for threads in [2, 3, 4] {
            let o = run_manifest(
                &m,
                &SweepOptions {
                    threads,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert_eq!(canon_points(&o), baseline, "threads={threads}");
        }
    }

    #[test]
    fn journal_then_full_resume_replays_everything() {
        let dir = std::env::temp_dir().join("vdtn-exec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.jsonl");
        let m = tiny_manifest();
        let cold = run_manifest(
            &m,
            &SweepOptions {
                journal: Some(path.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let resumed = run_manifest(
            &m,
            &SweepOptions {
                journal: Some(path.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.runs_executed, 0);
        assert_eq!(resumed.runs_replayed, 12);
        assert_eq!(canon_points(&cold), canon_points(&resumed));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_journal_is_rejected() {
        let dir = std::env::temp_dir().join("vdtn-exec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.jsonl");
        let m = tiny_manifest();
        run_manifest(
            &m,
            &SweepOptions {
                journal: Some(path.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let mut other = m.clone();
        other.seeds.push(99);
        let err = run_manifest(
            &other,
            &SweepOptions {
                journal: Some(path.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Journal { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let (results, workers) = fan_out(37, 4, |k| Ok::<_, ()>(k * k)).expect("no job fails");
        assert_eq!(workers, 4);
        assert_eq!(results, (0..37).map(|k| k * k).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_of_zero_jobs_uses_no_worker() {
        let (results, workers) = fan_out(0, 8, |_| -> Result<(), ()> {
            unreachable!("no job to run")
        })
        .expect("nothing fails");
        assert!(results.is_empty());
        assert_eq!(workers, 0);
    }

    #[test]
    fn fan_out_stops_claiming_after_the_first_error() {
        let executed = AtomicUsize::new(0);
        let err = fan_out(10, 1, |k| {
            executed.fetch_add(1, Ordering::Relaxed);
            if k == 3 {
                Err(format!("job {k} failed"))
            } else {
                Ok(k)
            }
        })
        .unwrap_err();
        assert_eq!(err, "job 3 failed");
        assert_eq!(
            executed.load(Ordering::Relaxed),
            4,
            "jobs 4..10 were claimed"
        );
    }
}
