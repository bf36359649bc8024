//! Layer replays for the traced run: program synthesis, the correct-path
//! walker, each branch-prediction structure and the memory hierarchy, each
//! timed on its own over a workload's correct-path instruction stream.
//!
//! A replay feeds one layer the stream the simulator would feed it on the
//! correct path, without the pipeline around it, so its host cost per
//! operation and its hit rate can be read apart from everything else.

use std::hint::black_box;
use std::sync::Arc;

use smt_bpred::{
    Btb, Ftb, GlobalHistory, Gshare, Gskew, ObservedEnd, ObservedStream, StreamPath,
    StreamPredictor,
};
use smt_core::LINE_BYTES;
use smt_isa::{Addr, BranchKind, DynInst, InstClass};
use smt_mem::{CacheStats, FetchOutcome, MemoryHierarchy};
use smt_workloads::{Program, Walker, Workload};

use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Correct-path instructions walked per thread.
const WALK_INSTS: u64 = 100_000;
/// Timed repetitions of each replay; the median is reported.
const REPS: usize = 3;
/// Simulated cycles between two memory replay accesses: longer than any
/// miss, so every MSHR has drained and no access stalls or merges.
const MEM_GAP: u64 = 1_000;
/// Global-history lengths of the Table 3 gshare and gskew.
const GSHARE_HIST: u32 = 16;
const GSKEW_HIST: u32 = 15;

struct Branch {
    pc: Addr,
    kind: BranchKind,
    taken: bool,
    next_pc: Addr,
    /// Index of the branch in its thread's correct path.
    seq: u64,
}

/// One thread's correct path, reduced to what the replays consume.
struct ThreadPath {
    entry: Addr,
    branches: Vec<Branch>,
    fetch_lines: Vec<Addr>,
    /// Data accesses: address and whether it is a store.
    data: Vec<(Addr, bool)>,
}

fn record(program: &Arc<Program>, thread: usize) -> ThreadPath {
    let mut w = Walker::new(Arc::clone(program), thread);
    let mut path = ThreadPath {
        entry: w.pc(),
        branches: Vec::new(),
        fetch_lines: Vec::new(),
        data: Vec::new(),
    };
    for seq in 0..WALK_INSTS {
        let di = w.next_inst();
        let line = di.pc.line(LINE_BYTES);
        if path.fetch_lines.last() != Some(&line) {
            path.fetch_lines.push(line);
        }
        if let Some(kind) = di.class.branch_kind() {
            path.branches.push(Branch {
                pc: di.pc,
                kind,
                taken: di.taken,
                next_pc: di.next_pc,
                seq,
            });
        }
        if let Some(m) = di.mem {
            path.data.push((m.addr, di.class == InstClass::Store));
        }
    }
    path
}

/// Host time, operation count and hits of one layer's replay, summed over
/// the Table 2 workloads replayed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub ns: f64,
    pub ops: u64,
    pub hits: u64,
}

impl Layer {
    fn add(&mut self, ns: f64, ops: u64, hits: u64) {
        self.ns += ns;
        self.ops += ops;
        self.hits += hits;
    }

    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }

    pub fn hit_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.hits as f64 / self.ops as f64
        }
    }
}

#[derive(Debug, Default)]
pub struct Replays {
    pub synth_ns: f64,
    pub walk: Layer,
    pub gshare: Layer,
    pub gskew: Layer,
    pub btb: Layer,
    pub ftb: Layer,
    pub stream: Layer,
    pub mem_fetch: Layer,
    pub mem_data: Layer,
    pub l1i: CacheStats,
    pub l1d: CacheStats,
    pub l2: CacheStats,
}

fn add_cache(into: &mut CacheStats, s: CacheStats) {
    into.accesses += s.accesses;
    into.hits += s.hits;
    into.fills += s.fills;
    into.writebacks += s.writebacks;
}

/// Runs `replay` on `REPS` fresh states, each under its own span, and
/// returns the median span duration, the replay's hit count and the last
/// state.
fn timed<S>(
    tracer: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    label: &str,
    mut fresh: impl FnMut() -> S,
    mut replay: impl FnMut(&mut S) -> u64,
) -> (f64, u64, S) {
    let mut ns = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let mut state = fresh();
        let span = tracer.open(name, label.to_string(), Some(parent));
        let hits = black_box(replay(&mut state));
        ns.push(tracer.close(span) as f64);
        last = Some((hits, state));
    }
    let (hits, state) = last.expect("REPS > 0");
    (median(&ns), hits, state)
}

fn gshare_like(
    paths: &[ThreadPath],
    hist_bits: u32,
    mut predict_update: impl FnMut(Addr, GlobalHistory, bool) -> bool,
) -> u64 {
    let mut hits = 0;
    for t in paths {
        let mut h = GlobalHistory::new(hist_bits);
        for b in t.branches.iter().filter(|b| b.kind == BranchKind::Cond) {
            hits += u64::from(predict_update(b.pc, h, b.taken) == b.taken);
            h.push(b.taken);
        }
    }
    hits
}

/// Replays every layer over each Table 2 workload's correct path, under
/// `parent`, accumulating into one [`Replays`].
pub fn run(
    workloads: &[Workload],
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Replays, String> {
    let mut r = Replays::default();
    for w in workloads {
        let label = w.name();
        let mut synth = Vec::with_capacity(REPS);
        let mut programs = Vec::new();
        for _ in 0..REPS {
            let span = tracer.open("synth", label.to_string(), Some(parent));
            let built = w.programs(seed).map_err(|e| e.to_string())?;
            synth.push(tracer.close(span) as f64);
            programs = built.into_iter().map(Arc::new).collect();
        }
        r.synth_ns += median(&synth);

        let paths: Vec<ThreadPath> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| record(p, t))
            .collect();
        let cond = paths
            .iter()
            .flat_map(|t| &t.branches)
            .filter(|b| b.kind == BranchKind::Cond)
            .count() as u64;
        let branches: u64 = paths.iter().map(|t| t.branches.len() as u64).sum();
        let taken = paths
            .iter()
            .flat_map(|t| &t.branches)
            .filter(|b| b.taken)
            .count() as u64;

        let template: DynInst = Walker::new(Arc::clone(&programs[0]), 0).next_inst();
        let mut buf = [template; 16];
        let fresh_walkers = || -> Vec<Walker> {
            programs
                .iter()
                .enumerate()
                .map(|(t, p)| Walker::new(Arc::clone(p), t))
                .collect()
        };
        let (ns, _, _) = timed(tracer, parent, "walk", label, fresh_walkers, |ws| {
            for wk in ws.iter_mut() {
                let mut n = 0u64;
                while n < WALK_INSTS {
                    n += wk.next_block(&mut buf, 16) as u64;
                }
            }
            black_box(buf[0].pc.raw())
        });
        r.walk.add(ns, WALK_INSTS * programs.len() as u64, 0);

        let (ns, hits, _) = timed(tracer, parent, "gshare", label, Gshare::hpca2004, |g| {
            gshare_like(&paths, GSHARE_HIST, |pc, h, taken| {
                let p = g.predict(pc, h);
                g.update(pc, h, taken);
                p
            })
        });
        r.gshare.add(ns, cond, hits);

        let (ns, hits, _) = timed(tracer, parent, "gskew", label, Gskew::hpca2004, |g| {
            gshare_like(&paths, GSKEW_HIST, |pc, h, taken| {
                let p = g.predict(pc, h);
                g.update(pc, h, taken);
                p
            })
        });
        r.gskew.add(ns, cond, hits);

        let (ns, hits, _) = timed(tracer, parent, "btb", label, Btb::hpca2004, |btb| {
            let mut hits = 0;
            for b in paths.iter().flat_map(|t| &t.branches) {
                hits += u64::from(btb.lookup(b.pc).is_some());
                if b.taken {
                    btb.record_taken(b.pc, b.next_pc, b.kind);
                }
            }
            hits
        });
        r.btb.add(ns, branches, hits);

        // One FTB op per fetch block, i.e. per taken branch: look the block
        // up by its start, then train it with the branch that ended it.
        let (ns, hits, _) = timed(tracer, parent, "ftb", label, Ftb::hpca2004, |ftb| {
            let mut hits = 0;
            for t in &paths {
                let mut start = t.entry;
                for b in t.branches.iter().filter(|b| b.taken) {
                    hits += u64::from(ftb.lookup(start).is_some());
                    let observed = ObservedEnd {
                        branch_pc: b.pc,
                        kind: b.kind,
                        target: b.next_pc,
                    };
                    ftb.record_taken(start, observed);
                    start = b.next_pc;
                }
            }
            hits
        });
        r.ftb.add(ns, taken, hits);

        // One stream op per stream (taken branch to taken branch): predict
        // under the path register, train, then push the stream's start.
        let (ns, hits, _) = timed(
            tracer,
            parent,
            "stream",
            label,
            StreamPredictor::hpca2004,
            |sp| {
                let mut hits = 0;
                for t in &paths {
                    let mut path = StreamPath::new();
                    let (mut start, mut start_seq) = (t.entry, 0u64);
                    for b in t.branches.iter().filter(|b| b.taken) {
                        hits += u64::from(sp.predict(start, &path).is_some());
                        let observed = ObservedStream {
                            len: u32::try_from(b.seq - start_seq + 1).unwrap_or(u32::MAX),
                            kind: b.kind,
                            target: b.next_pc,
                        };
                        sp.train(start, &path, observed);
                        path.push(start);
                        start = b.next_pc;
                        start_seq = b.seq + 1;
                    }
                }
                hits
            },
        );
        r.stream.add(ns, taken, hits);

        let threads = programs.len();
        let lines: u64 = paths.iter().map(|t| t.fetch_lines.len() as u64).sum();
        let (ns, hits, mh) = timed(
            tracer,
            parent,
            "mem.fetch",
            label,
            || MemoryHierarchy::hpca2004(threads),
            |mh| {
                let (mut now, mut hits) = (0u64, 0u64);
                for &line in paths.iter().flat_map(|t| &t.fetch_lines) {
                    now += MEM_GAP;
                    hits += u64::from(mh.fetch(line, now) == FetchOutcome::Hit);
                }
                hits
            },
        );
        r.mem_fetch.add(ns, lines, hits);
        let (l1i, _, l2) = mh.cache_stats();
        add_cache(&mut r.l1i, l1i);
        add_cache(&mut r.l2, l2);

        let accesses: u64 = paths.iter().map(|t| t.data.len() as u64).sum();
        let (ns, _, mh) = timed(
            tracer,
            parent,
            "mem.data",
            label,
            || MemoryHierarchy::hpca2004(threads),
            |mh| {
                let mut now = 0u64;
                for &(addr, store) in paths.iter().flat_map(|t| &t.data) {
                    now += MEM_GAP;
                    if store {
                        mh.store(addr, now);
                    } else {
                        black_box(mh.load(addr, now));
                    }
                }
                now
            },
        );
        let (_, l1d, l2) = mh.cache_stats();
        r.mem_data.add(ns, accesses, l1d.hits);
        add_cache(&mut r.l1d, l1d);
        add_cache(&mut r.l2, l2);
    }
    Ok(r)
}
