//! The paper's IPC/IPFC orderings, checked on one workload's own cells.
//!
//! A claim whose cells are missing (the cell failed) counts as not held.

use std::collections::BTreeMap;

/// The two headline metrics of one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    pub ipc: f64,
    pub ipfc: f64,
}

/// Cell results keyed by (Table 2 workload, engine, policy), spelled as the
/// simulator's `Display` impls spell them.
pub type Results = BTreeMap<(String, String, String), Point>;

const GSHARE: &str = "gshare+BTB";
const GSKEW: &str = "gskew+FTB";
const STREAM: &str = "stream";
const ENGINES: [&str; 3] = [GSHARE, GSKEW, STREAM];
const P18: &str = "ICOUNT.1.8";
const P28: &str = "ICOUNT.2.8";
const P116: &str = "ICOUNT.1.16";
const P216: &str = "ICOUNT.2.16";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Metric {
    Ipc,
    Ipfc,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Order {
    Greater,
    AtLeast,
}

/// `metric(a) ORDER metric(b)`, where `a` and `b` are (workload, engine,
/// policy) cells.
struct Claim {
    metric: Metric,
    a: (&'static str, &'static str, &'static str),
    order: Order,
    b: (&'static str, &'static str, &'static str),
}

fn claim(
    metric: Metric,
    a: (&'static str, &'static str, &'static str),
    order: Order,
    b: (&'static str, &'static str, &'static str),
) -> Claim {
    Claim {
        metric,
        a,
        order,
        b,
    }
}

fn claims(workload: &str) -> Vec<Claim> {
    use Metric::{Ipc, Ipfc};
    use Order::{AtLeast, Greater};
    let mut out = Vec::new();
    match workload {
        "ilp_fig5" => {
            for w in ["2_ILP", "4_ILP", "6_ILP", "8_ILP"] {
                // Figure 5a: both high-performance engines out-fetch the
                // baseline at either policy.
                for p in [P18, P28] {
                    for e in [GSKEW, STREAM] {
                        out.push(claim(Ipfc, (w, e, p), Greater, (w, GSHARE, p)));
                    }
                }
                // Figure 5b: fetching two threads helps ILP workloads.
                for e in ENGINES {
                    out.push(claim(Ipc, (w, e, P28), Greater, (w, e, P18)));
                }
            }
        }
        "mem_fig7" => {
            for w in ["2_MIX", "4_MIX"] {
                for e in ENGINES {
                    // Figure 7b: a second thread clogs the machine...
                    out.push(claim(Ipc, (w, e, P18), Greater, (w, e, P28)));
                    // ...while Figure 7a: it still fetches more.
                    out.push(claim(Ipfc, (w, e, P28), Greater, (w, e, P18)));
                }
            }
        }
        "wide_fig6" => {
            for w in ["4_ILP", "8_ILP"] {
                // Figure 6b: a high-performance engine fetching 16 from one
                // thread matches the baseline's dual-thread 2.8...
                for e in [GSKEW, STREAM] {
                    out.push(claim(Ipc, (w, e, P116), AtLeast, (w, GSHARE, P28)));
                }
                // ...which the baseline itself cannot do at 1.16.
                out.push(claim(Ipc, (w, GSHARE, P28), Greater, (w, GSHARE, P116)));
            }
            // Figure 8b: on memory-bound mixes 2.16 is worse than 1.16.
            for w in ["4_MIX", "8_MIX"] {
                for e in [GSKEW, STREAM] {
                    out.push(claim(Ipc, (w, e, P116), Greater, (w, e, P216)));
                }
            }
        }
        _ => {}
    }
    out
}

fn lookup(r: &Results, (w, e, p): (&str, &str, &str), metric: Metric) -> Option<f64> {
    let point = r.get(&(w.to_string(), e.to_string(), p.to_string()))?;
    Some(match metric {
        Metric::Ipc => point.ipc,
        Metric::Ipfc => point.ipfc,
    })
}

/// `(held, total)` for `workload`'s claims on the results `r`.
pub fn evaluate(workload: &str, r: &Results) -> (usize, usize) {
    let all = claims(workload);
    let held = all
        .iter()
        .filter(
            |c| match (lookup(r, c.a, c.metric), lookup(r, c.b, c.metric)) {
                (Some(a), Some(b)) => match c.order {
                    Order::Greater => a > b,
                    Order::AtLeast => a >= b,
                },
                _ => false,
            },
        )
        .count();
    (held, all.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(r: &mut Results, w: &str, e: &str, p: &str, ipc: f64, ipfc: f64) {
        r.insert((w.into(), e.into(), p.into()), Point { ipc, ipfc });
    }

    /// Hand-made Figure 5 results in which every claim holds: the
    /// high-performance engines fetch more, and 2.8 commits more.
    fn fig5() -> Results {
        let mut r = Results::new();
        for w in ["2_ILP", "4_ILP", "6_ILP", "8_ILP"] {
            for (e, ipfc) in [(GSHARE, 4.0), (GSKEW, 5.0), (STREAM, 5.5)] {
                put(&mut r, w, e, P18, 4.0, ipfc);
                put(&mut r, w, e, P28, 5.0, ipfc + 0.5);
            }
        }
        r
    }

    #[test]
    fn claim_counts_are_28_12_10() {
        let totals: Vec<usize> = crate::cells::NAMES
            .iter()
            .map(|n| evaluate(n, &Results::new()).1)
            .collect();
        assert_eq!(totals, [28, 12, 10]);
    }

    #[test]
    fn one_flipped_ordering_costs_exactly_one_claim() {
        let mut r = fig5();
        assert_eq!(evaluate("ilp_fig5", &r), (28, 28));
        // 4_ILP stream now commits less at 2.8 than at 1.8.
        put(&mut r, "4_ILP", STREAM, P28, 3.0, 6.0);
        assert_eq!(evaluate("ilp_fig5", &r), (27, 28));
    }

    #[test]
    fn a_tie_holds_only_where_the_paper_says_at_least() {
        let mut r = Results::new();
        for w in ["4_ILP", "8_ILP"] {
            put(&mut r, w, GSHARE, P28, 5.0, 5.0);
            put(&mut r, w, GSHARE, P116, 4.0, 4.0);
            put(&mut r, w, GSKEW, P116, 5.0, 6.0);
            put(&mut r, w, STREAM, P116, 5.0, 6.0);
        }
        for w in ["4_MIX", "8_MIX"] {
            for e in [GSKEW, STREAM] {
                put(&mut r, w, e, P116, 2.0, 4.0);
                put(&mut r, w, e, P216, 1.5, 4.5);
            }
        }
        assert_eq!(evaluate("wide_fig6", &r), (10, 10));
        // Equal IPC at 1.16 and 2.16 breaks a strict ordering.
        put(&mut r, "8_MIX", STREAM, P216, 2.0, 4.5);
        assert_eq!(evaluate("wide_fig6", &r), (9, 10));
    }

    #[test]
    fn a_missing_cell_fails_its_claims() {
        let mut r = fig5();
        r.remove(&("2_ILP".into(), GSHARE.into(), P18.into()));
        // That cell feeds two IPFC claims and one IPC claim.
        assert_eq!(evaluate("ilp_fig5", &r), (25, 28));
    }
}
