//! Exact I/O timelines by enumeration of the scheduled program.
//!
//! The test oracle. Enumerating every dynamic I/O operation is the
//! definition of the exact skew and occupancy, but its cost follows the
//! data, so no compile runs it: the analysis is [`crate::nest`], which
//! works on the loop structure. [`Timeline`] is the "ground truth" the
//! nest engine and the closed-form bounds of [`crate::vectors`] are
//! validated against, and [`visit_events`] is the same for host scripts.

use std::collections::BTreeMap;
use w2_lang::ast::{Chan, Dir};
use w2_lang::hir::VarId;
use warp_cell::{io_index, CellCode, CodeRegion, IoEvent};
use warp_common::idvec::Id as _;
use warp_common::IdVec;
use warp_ir::affine::LoopId;
use warp_ir::region::LoopMeta;
use warp_ir::HostSlot;

/// One dynamic I/O operation with its absolute cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedIo {
    /// Absolute cycle (relative to the cell's own start).
    pub time: u64,
    /// Neighbour direction.
    pub dir: Dir,
    /// Channel.
    pub chan: Chan,
    /// `true` for a receive.
    pub is_recv: bool,
    /// Host binding, with the affine index evaluated: `(var, index)` for
    /// host memory, or a literal value.
    pub host: Option<HostBinding>,
}

/// A fully evaluated host binding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HostBinding {
    /// The host supplies/stores a literal value.
    Lit(f32),
    /// A concrete word of a host variable.
    Elem(VarId, i64),
}

/// Streams every dynamic I/O operation of `code` in execution order.
///
/// Loop bodies are visited once per iteration with the loop variable's
/// value bound, so host bindings come out fully indexed. The callback
/// runs once per dynamic operation — for large programs this is the
/// memory-friendly interface.
pub fn visit_events(code: &CellCode, loops: &IdVec<LoopId, LoopMeta>, mut f: impl FnMut(&TimedIo)) {
    walk_events(code, loops, |time, e, env| {
        let host = e.ext.as_ref().map(|slot| match slot {
            HostSlot::Lit(v) => HostBinding::Lit(*v),
            HostSlot::Elem { var, index } => {
                let terms = index.terms.iter().map(|(l, c)| c * env[l.index()]);
                HostBinding::Elem(*var, index.constant + terms.sum::<i64>())
            }
        });
        f(&TimedIo {
            time,
            dir: e.dir,
            chan: e.chan,
            is_recv: e.is_recv,
            host,
        })
    })
}

/// Calls `f(cycle, event, env)` for every dynamic I/O operation in
/// execution order; `env[l.index()]` is the current index value of an
/// enclosing loop `l`. Host bindings are left unevaluated, so a caller
/// that only reads times pays nothing for them.
fn walk_events(
    code: &CellCode,
    loops: &IdVec<LoopId, LoopMeta>,
    mut f: impl FnMut(u64, &IoEvent, &[i64]),
) {
    fn walk(
        regions: &[CodeRegion],
        loops: &IdVec<LoopId, LoopMeta>,
        env: &mut [i64],
        t: &mut u64,
        f: &mut impl FnMut(u64, &IoEvent, &[i64]),
    ) {
        for region in regions {
            match region {
                CodeRegion::Block(b) => {
                    for e in &b.io_events {
                        f(*t + u64::from(e.cycle), e, env);
                    }
                    *t += u64::from(b.len());
                }
                CodeRegion::Loop { id, count, body } => {
                    let lo = loops[*id].lo;
                    for iter in 0..*count {
                        env[id.index()] = lo + iter as i64;
                        walk(body, loops, env, t, f);
                    }
                }
            }
        }
    }
    let mut env = vec![0i64; loops.len()];
    walk(&code.regions, loops, &mut env, &mut 0, &mut f);
}

/// Send and receive times per `(direction, channel)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Dequeue times per (source direction, channel).
    pub recvs: BTreeMap<(Dir, Chan), Vec<u64>>,
    /// Enqueue times per (target direction, channel).
    pub sends: BTreeMap<(Dir, Chan), Vec<u64>>,
    /// Total program span in cycles.
    pub span: u64,
}

impl Timeline {
    /// Builds the timeline of `code` by full enumeration.
    pub fn build(code: &CellCode, loops: &IdVec<LoopId, LoopMeta>) -> Timeline {
        let mut tl = Timeline {
            span: code.dynamic_len(),
            ..Timeline::default()
        };
        // Times by [is_recv][I/O port]: no map lookup per event.
        let mut lanes: [[Vec<u64>; 4]; 2] = Default::default();
        walk_events(code, loops, |time, e, _| {
            lanes[usize::from(e.is_recv)][io_index(e.dir, e.chan)].push(time);
        });
        for dir in [Dir::Left, Dir::Right] {
            for chan in [Chan::X, Chan::Y] {
                for (map, ports) in [&mut tl.sends, &mut tl.recvs].into_iter().zip(&mut lanes) {
                    let times = std::mem::take(&mut ports[io_index(dir, chan)]);
                    if !times.is_empty() {
                        map.insert((dir, chan), times);
                    }
                }
            }
        }
        tl
    }

    /// The exact minimum skew for one channel: the receiver (running the
    /// same program, delayed by the skew) must never dequeue the `n`-th
    /// word before the sender enqueues it. A send and its matching
    /// receive may share a cycle (sends commit before receives — exactly
    /// what Figure 6-3 of the paper shows at cycle 5).
    ///
    /// `outputs` are the sender's enqueue times towards the receiver and
    /// `inputs` the receiver's matching dequeue times. Returns `None` if
    /// there is no transfer.
    pub fn channel_skew(outputs: &[u64], inputs: &[u64]) -> Option<i64> {
        outputs
            .iter()
            .zip(inputs)
            .map(|(&o, &i)| o as i64 - i as i64)
            .max()
    }

    /// Exact minimum skew across all channels for a unidirectional
    /// program flowing in `flow` direction (`Dir::Right` = data moves
    /// left-to-right). The result is clamped to zero.
    pub fn min_skew(&self, flow: Dir) -> i64 {
        let mut skew = 0i64;
        for chan in [Chan::X, Chan::Y] {
            let outs = self.sends.get(&(flow, chan));
            let ins = self.recvs.get(&(flow.opposite(), chan));
            if let (Some(outs), Some(ins)) = (outs, ins) {
                if let Some(s) = Timeline::channel_skew(outs, ins) {
                    skew = skew.max(s);
                }
            }
        }
        skew
    }

    /// Maximum queue occupancy on one channel when the receiver runs
    /// `skew` cycles behind the sender. Within one cycle the send
    /// commits before the matching receive.
    pub fn queue_occupancy(outputs: &[u64], inputs: &[u64], skew: i64) -> u64 {
        // Merge the send times and (shifted) receive times; occupancy
        // after each event.
        let mut occ: i64 = 0;
        let mut max_occ: i64 = 0;
        let mut oi = 0;
        let mut ii = 0;
        while oi < outputs.len() || ii < inputs.len() {
            let ot = outputs.get(oi).map(|&t| t as i64);
            let it = inputs.get(ii).map(|&t| t as i64 + skew);
            match (ot, it) {
                (Some(o), Some(i)) if o <= i => {
                    // Send first on ties: the word enters and may leave in
                    // the same cycle, so the entry is counted first.
                    occ += 1;
                    oi += 1;
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    occ -= 1;
                    ii += 1;
                }
                (Some(_), None) => {
                    occ += 1;
                    oi += 1;
                }
                (None, None) => unreachable!(),
            }
            max_occ = max_occ.max(occ);
        }
        max_occ.max(0) as u64
    }

    /// Maximum occupancy over both channels for a program flowing in
    /// `flow` direction at the given skew.
    pub fn max_queue_occupancy(&self, flow: Dir, skew: i64) -> BTreeMap<Chan, u64> {
        let mut out = BTreeMap::new();
        for chan in [Chan::X, Chan::Y] {
            let outs = self.sends.get(&(flow, chan));
            let ins = self.recvs.get(&(flow.opposite(), chan));
            if let (Some(outs), Some(ins)) = (outs, ins) {
                out.insert(chan, Timeline::queue_occupancy(outs, ins, skew));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{fig_6_2_code, fig_6_4_code, paper_loops};
    use warp_ir::HostSlot;

    #[test]
    fn figure_6_2_table_6_1() {
        // Table 6-1: τ_O = (0, 5), τ_I = (1, 2), min skew = 3.
        let tl = Timeline::build(&fig_6_2_code(), &paper_loops());
        assert_eq!(tl.sends[&(Dir::Right, Chan::X)], vec![0, 5]);
        assert_eq!(tl.recvs[&(Dir::Left, Chan::X)], vec![1, 2]);
        assert_eq!(tl.min_skew(Dir::Right), 3);
        assert_eq!(tl.span, 6);
    }

    #[test]
    fn figure_6_4_table_6_2() {
        // Table 6-2: inputs at 1,2,4,5,7,8,10,11,13,14; outputs at
        // 18,19,20,21,24,25,26,29,30,31; max difference (min skew) 18.
        let tl = Timeline::build(&fig_6_4_code(), &paper_loops());
        assert_eq!(
            tl.recvs[&(Dir::Left, Chan::X)],
            vec![1, 2, 4, 5, 7, 8, 10, 11, 13, 14]
        );
        assert_eq!(
            tl.sends[&(Dir::Right, Chan::X)],
            vec![18, 19, 20, 21, 24, 25, 26, 29, 30, 31]
        );
        assert_eq!(tl.min_skew(Dir::Right), 18);
    }

    #[test]
    fn queue_occupancy_simple() {
        // Sender enqueues at 0..4, receiver (skewed by 4) dequeues the
        // words at 4..8: occupancy peaks at 4 just before the first pop.
        let outs = [0, 1, 2, 3];
        let ins = [0, 1, 2, 3];
        assert_eq!(Timeline::queue_occupancy(&outs, &ins, 4), 4);
        // With zero skew and identical times each word leaves the cycle
        // it arrives: peak 1.
        assert_eq!(Timeline::queue_occupancy(&outs, &ins, 0), 1);
    }

    #[test]
    fn occupancy_of_figure_6_4_at_min_skew() {
        let tl = Timeline::build(&fig_6_4_code(), &paper_loops());
        let occ = tl.max_queue_occupancy(Dir::Right, 18);
        // At minimum skew the receiver's input loop interleaves with the
        // sender's output loops: at most two words are in flight.
        assert_eq!(occ[&Chan::X], 2);
        // Larger skew can only increase occupancy.
        let occ2 = tl.max_queue_occupancy(Dir::Right, 30);
        assert!(occ2[&Chan::X] >= occ[&Chan::X]);
    }

    #[test]
    fn send_and_recv_may_share_a_cycle() {
        // Figure 6-3: with skew 3, output_1@5 on cell 1 and input_1@5 on
        // cell 2 share cycle 5 legally.
        let tl = Timeline::build(&fig_6_2_code(), &paper_loops());
        let outs = &tl.sends[&(Dir::Right, Chan::X)];
        let ins = &tl.recvs[&(Dir::Left, Chan::X)];
        let skew = Timeline::channel_skew(outs, ins).unwrap();
        assert_eq!(outs[1] as i64, ins[1] as i64 + skew);
    }

    #[test]
    fn host_bindings_evaluated_per_iteration() {
        use warp_cell::{BlockCode, CodeRegion, IoEvent, MicroInst};
        use warp_ir::Affine;
        let mut loops = IdVec::new();
        let lid = loops.push(LoopMeta {
            var: VarId(0),
            lo: 2,
            count: 3,
        });
        let body = BlockCode {
            insts: vec![MicroInst::default(); 2],
            io_events: vec![IoEvent {
                cycle: 0,
                dir: Dir::Left,
                chan: Chan::X,
                is_recv: true,
                ext: Some(HostSlot::Elem {
                    var: VarId(7),
                    index: Affine::term(lid, 2),
                }),
            }],
            adr_deadlines: vec![],
            source: None,
        };
        let code = CellCode {
            name: "t".into(),
            pipelined: vec![],
            regions: vec![CodeRegion::Loop {
                id: lid,
                count: 3,
                body: vec![CodeRegion::Block(body)],
            }],
            regs_used: 0,
            scratch_words: 0,
        };
        let mut seen = Vec::new();
        visit_events(&code, &loops, |e| seen.push((e.time, e.host)));
        assert_eq!(
            seen,
            vec![
                (0, Some(HostBinding::Elem(VarId(7), 4))),
                (2, Some(HostBinding::Elem(VarId(7), 6))),
                (4, Some(HostBinding::Elem(VarId(7), 8))),
            ]
        );
    }
}
