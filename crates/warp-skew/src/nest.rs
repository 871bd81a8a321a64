//! Exact minimum skew and queue occupancy from the loop nest.
//!
//! The paper derives the minimum skew from timing functions over the
//! *loop structure* (§6.2.1), so its cost follows the program text. This
//! module does the same without giving up exactness. Each interior lane
//! (channel × send | receive) becomes a small tree of [`Node`]s, stored
//! flat in pre-order; the sender's tree is walked recursively against a
//! [`Cursor`] over the receiver's, pairing events exactly as
//! [`crate::timeline::Timeline`] does — n-th send with n-th receive for
//! the skew, a time-ordered merge with send-first ties for the occupancy.
//!
//! The accelerator: at every sender-loop iteration boundary the
//! receiver's position is compared with the one recorded at the previous
//! boundary. If it moved by exactly one iteration of one enclosing loop
//! and nothing else changed, every repetition that keeps both sides in
//! those loops is a shifted copy of the iteration just walked. For the
//! skew the differences `o − i` are then affine in the repetition index,
//! so only the last copy is walked; for the occupancy (equal periods,
//! equal occupancy at both boundaries) the merge repeats itself and no
//! copy is. Both sides jump in O(1). Where the precondition fails
//! (dissimilar nests) the engine keeps stepping, so the closed-form
//! reasoning never decides an answer — it only skips work whose result is
//! already known.

use crate::skew::SkewError;
use crate::vectors::TimingOverflow;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use w2_lang::ast::{Chan, Dir};
use warp_cell::{CellCode, CodeRegion, IoEvent};
use warp_common::{CancelToken, Diagnostic, DiagnosticBag};

/// One lane's events in emitted order, loops kept symbolic: a tree laid
/// out in pre-order, so a whole lane is one vector.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Node {
    /// An I/O operation, at a cycle relative to the start of the
    /// enclosing iteration (of the program, at the top level).
    Event(u64),
    /// A loop with at least one event per iteration.
    Loop(Loop),
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Loop {
    /// Start of the first iteration, relative to the enclosing iteration.
    pub start: u64,
    pub count: u64,
    /// Cycles per iteration.
    pub period: u64,
    /// The body is the next `len` nodes (nested bodies included).
    pub len: usize,
}

#[derive(Debug, Default)]
pub(crate) struct Lane {
    pub nodes: Vec<Node>,
    /// Dynamic events of one pass over `nodes`.
    pub events: u64,
}

const SEND: usize = 0;
const RECV: usize = 1;

/// The loop nests of the interior lanes of a unidirectional program: per
/// channel, the sends towards `flow` and the receives from the other
/// side.
#[derive(Debug)]
pub struct Nests {
    /// `[channel][SEND | RECV]`.
    pub(crate) lanes: [[Lane; 2]; 2],
    /// Cycles of one execution of the program.
    pub span: u64,
}

fn overflow(context: &'static str) -> TimingOverflow {
    TimingOverflow { context }
}

fn add(a: u64, b: u64) -> Result<u64, TimingOverflow> {
    a.checked_add(b).ok_or(overflow("loop nest cycle"))
}

fn mul(a: u64, b: u64) -> Result<u64, TimingOverflow> {
    a.checked_mul(b).ok_or(overflow("loop nest span"))
}

fn signed(t: u64) -> Result<i64, TimingOverflow> {
    i64::try_from(t).map_err(|_| overflow("I/O cycle"))
}

impl Nests {
    /// Builds the nests of `code` in one walk of its regions. Events
    /// keep their emitted order; loops without events on a lane are
    /// dropped from it.
    ///
    /// # Errors
    ///
    /// [`TimingOverflow`] when the program's span or an event count
    /// leaves `u64`.
    pub fn build(code: &CellCode, flow: Dir) -> Result<Nests, TimingOverflow> {
        let mut lanes: [[Lane; 2]; 2] = Default::default();
        let mut span = 0;
        build_regions(&code.regions, flow, &mut span, &mut lanes)?;
        Ok(Nests { lanes, span })
    }

    /// The exact minimum skew: the largest `o − i` over the n-th send
    /// and the n-th receive of each channel, clamped to zero.
    ///
    /// # Errors
    ///
    /// A diagnostic when `meter`'s token trips, [`SkewError::Overflow`]
    /// when a cycle leaves its range.
    pub fn min_skew(&self, meter: &mut Meter) -> Result<i64, SkewError> {
        let mut skew = 0;
        for [sends, recvs] in &self.lanes {
            if sends.events == 0 || recvs.events == 0 {
                continue;
            }
            let paired = Walk::run(sends, recvs, Ordinals { max: None }, meter)?;
            skew = skew.max(paired.max.unwrap_or(0));
        }
        Ok(skew)
    }

    /// Maximum queue occupancy per channel when the receiver runs `skew`
    /// cycles behind the sender; within one cycle the send commits first.
    ///
    /// # Errors
    ///
    /// As [`Nests::min_skew`].
    pub fn max_queue_occupancy(
        &self,
        skew: i64,
        meter: &mut Meter,
    ) -> Result<BTreeMap<Chan, u64>, SkewError> {
        let mut out = BTreeMap::new();
        for (chan, [sends, recvs]) in [Chan::X, Chan::Y].into_iter().zip(&self.lanes) {
            if sends.events == 0 || recvs.events == 0 {
                continue;
            }
            let merge = Merge {
                skew,
                occ: 0,
                peak: 0,
                surplus: signed(sends.events)? - signed(recvs.events)?,
            };
            let merged = Walk::run(sends, recvs, merge, meter)?;
            out.insert(chan, merged.peak as u64);
        }
        Ok(out)
    }
}

fn build_regions(
    regions: &[CodeRegion],
    flow: Dir,
    offset: &mut u64,
    lanes: &mut [[Lane; 2]; 2],
) -> Result<(), TimingOverflow> {
    let lane_of = |e: &IoEvent| {
        let (side, dir) = if e.is_recv {
            (RECV, flow.opposite())
        } else {
            (SEND, flow)
        };
        (e.dir == dir).then_some((e.chan as usize, side))
    };
    for region in regions {
        match region {
            CodeRegion::Block(b) => {
                for e in &b.io_events {
                    if let Some((chan, side)) = lane_of(e) {
                        let lane = &mut lanes[chan][side];
                        lane.nodes
                            .push(Node::Event(add(*offset, u64::from(e.cycle))?));
                        lane.events = add(lane.events, 1)?;
                    }
                }
                *offset = add(*offset, u64::from(b.len()))?;
            }
            CodeRegion::Loop { count, body, .. } => {
                let open = lanes
                    .each_ref()
                    .map(|pair| pair.each_ref().map(|lane| (lane.nodes.len(), lane.events)));
                let mut period = 0;
                build_regions(body, flow, &mut period, lanes)?;
                // Wrap what the body added to each lane in a loop header;
                // a lane it added no event to stays as it was.
                let lanes = lanes.iter_mut().flatten();
                for (lane, (at, before)) in lanes.zip(open.into_iter().flatten()) {
                    let per_iter = lane.events - before;
                    lane.events = add(before, mul(*count, per_iter)?)?;
                    if lane.events == before {
                        lane.nodes.truncate(at);
                        continue;
                    }
                    let header = Loop {
                        start: *offset,
                        count: *count,
                        period,
                        len: lane.nodes.len() - at,
                    };
                    lane.nodes.insert(at, Node::Loop(header));
                }
                *offset = add(*offset, mul(*count, period)?)?;
            }
        }
    }
    Ok(())
}

/// Counts engine steps and polls the cancel token every
/// [`Meter::POLL_EVERY`] of them, across however many analyses share it.
pub struct Meter {
    cancel: CancelToken,
    steps: u64,
}

impl Meter {
    const POLL_EVERY: u64 = 4096;

    /// A meter at zero steps.
    pub fn new(cancel: CancelToken) -> Meter {
        Meter { cancel, steps: 0 }
    }

    /// Events the engine has stepped through so far — its cost, which
    /// follows the program text for similar nests and the data otherwise.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn step(&mut self) -> Result<(), SkewError> {
        self.steps += 1;
        if self.steps.is_multiple_of(Meter::POLL_EVERY) {
            self.cancel.check().map_err(|reason| {
                let mut diags = DiagnosticBag::new();
                diags.push(Diagnostic::error_global(format!(
                    "skew analysis interrupted: {reason}"
                )));
                SkewError::Diagnostics(diags)
            })?;
        }
        Ok(())
    }
}

/// One level of a [`Cursor`]: a position in a loop body (the lane's
/// top-level list counts as a one-trip loop).
struct Frame {
    /// Index of the node under the cursor; the body is `first..end`.
    pos: usize,
    first: usize,
    end: usize,
    iter: u64,
    count: u64,
    period: u64,
    /// Absolute cycle at which iteration `iter` starts.
    base: u64,
}

/// A pull cursor over one lane, always parked on its next event, so
/// every event ordinal has exactly one position.
struct Cursor<'a> {
    nodes: &'a [Node],
    /// Outermost first; empty once the lane is exhausted.
    frames: Vec<Frame>,
    /// Absolute cycle of the next event.
    head: Option<u64>,
}

impl<'a> Cursor<'a> {
    fn new(lane: &'a Lane) -> Result<Cursor<'a>, TimingOverflow> {
        let root = Frame {
            pos: 0,
            first: 0,
            end: lane.nodes.len(),
            iter: 0,
            count: 1,
            period: 0,
            base: 0,
        };
        let mut frames = Vec::with_capacity(4);
        frames.push(root);
        let mut cursor = Cursor {
            nodes: &lane.nodes,
            frames,
            head: None,
        };
        cursor.settle()?;
        Ok(cursor)
    }

    /// Consumes the event under the cursor.
    fn advance(&mut self) -> Result<(), TimingOverflow> {
        if let Some(top) = self.frames.last_mut() {
            top.pos += 1;
        }
        self.settle()
    }

    /// Moves forward to the next event: into loops, around them, and out
    /// of finished ones.
    fn settle(&mut self) -> Result<(), TimingOverflow> {
        self.head = None;
        while let Some(top) = self.frames.last_mut() {
            if top.pos < top.end {
                match self.nodes[top.pos] {
                    Node::Event(at) => {
                        self.head = Some(add(top.base, at)?);
                        break;
                    }
                    Node::Loop(l) => {
                        let first = top.pos + 1;
                        let inner = Frame {
                            pos: first,
                            first,
                            end: first + l.len,
                            iter: 0,
                            count: l.count,
                            period: l.period,
                            base: add(top.base, l.start)?,
                        };
                        self.frames.push(inner);
                    }
                }
            } else if top.iter + 1 < top.count {
                top.iter += 1;
                top.base = add(top.base, top.period)?;
                top.pos = top.first;
            } else {
                let end = top.end;
                self.frames.pop();
                if let Some(parent) = self.frames.last_mut() {
                    parent.pos = end;
                }
            }
        }
        Ok(())
    }

    fn record(&self, marks: &mut Vec<(usize, u64)>) {
        marks.extend(self.frames.iter().map(|f| (f.pos, f.iter)));
    }

    /// The frame whose loop the cursor advanced by exactly one iteration
    /// since `mark` was recorded, if that is all that changed.
    fn shifted_frame(&self, mark: &[(usize, u64)]) -> Option<usize> {
        if mark.len() != self.frames.len() {
            return None;
        }
        let mut shifted = None;
        for (d, (f, &(pos, iter))) in self.frames.iter().zip(mark).enumerate() {
            if f.pos != pos {
                return None;
            }
            if f.iter != iter {
                if shifted.is_some() || iter.checked_add(1) != Some(f.iter) {
                    return None;
                }
                shifted = Some(d);
            }
        }
        shifted
    }

    /// Moves the loop of frame `d` forward by `n` iterations, keeping
    /// the position inside the iteration.
    fn jump(&mut self, d: usize, n: u64) -> Result<(), TimingOverflow> {
        let delta = mul(n, self.frames[d].period)?;
        self.frames[d].iter = add(self.frames[d].iter, n)?;
        for f in &mut self.frames[d..] {
            f.base = add(f.base, delta)?;
        }
        if let Some(head) = &mut self.head {
            *head = add(*head, delta)?;
        }
        Ok(())
    }
}

/// What to do with each send, and what must repeat — beyond the
/// receiver's position — for an iteration to be a shifted copy.
trait Pairing {
    /// Handles the send at cycle `at`; `Break` once the rest of the lane
    /// cannot change the result.
    fn send(
        &mut self,
        at: u64,
        recv: &mut Cursor,
        meter: &mut Meter,
    ) -> Result<ControlFlow<()>, SkewError>;

    /// State that has to be equal at two consecutive boundaries.
    fn phase(&self) -> i64;

    /// How many of the next `room` iterations — all shifted copies of the
    /// one just walked — may be skipped without walking them.
    fn skippable(&self, room: u64, send_period: u64, recv_period: u64) -> u64;
}

/// n-th send against n-th receive, for the minimum skew.
struct Ordinals {
    max: Option<i64>,
}

impl Pairing for Ordinals {
    fn send(
        &mut self,
        at: u64,
        recv: &mut Cursor,
        meter: &mut Meter,
    ) -> Result<ControlFlow<()>, SkewError> {
        let Some(head) = recv.head else {
            return Ok(ControlFlow::Break(()));
        };
        let d = signed(at)? - signed(head)?;
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
        recv.advance()?;
        meter.step()?;
        Ok(ControlFlow::Continue(()))
    }

    fn phase(&self) -> i64 {
        0
    }

    /// `o − i` is affine in the repetition index, so its maximum sits in
    /// the copy already walked or in the last one: walk that one.
    fn skippable(&self, room: u64, _: u64, _: u64) -> u64 {
        room.saturating_sub(1)
    }
}

/// Time-ordered merge of sends and receives shifted by `skew`.
struct Merge {
    skew: i64,
    /// Words in the queue.
    occ: i64,
    peak: i64,
    /// Sends minus receives over the whole lane pair: the occupancy
    /// after the last send once the receiver has run dry.
    surplus: i64,
}

impl Pairing for Merge {
    fn send(
        &mut self,
        at: u64,
        recv: &mut Cursor,
        meter: &mut Meter,
    ) -> Result<ControlFlow<()>, SkewError> {
        let at = signed(at)?;
        while let Some(head) = recv.head {
            let due = signed(head)?
                .checked_add(self.skew)
                .ok_or(overflow("skewed receive cycle"))?;
            // Send first on ties: the word enters, then may leave.
            if at <= due {
                break;
            }
            self.occ -= 1;
            recv.advance()?;
            meter.step()?;
        }
        self.occ += 1;
        self.peak = self.peak.max(self.occ);
        meter.step()?;
        if recv.head.is_none() {
            // Only sends remain; the queue is fullest after the last.
            self.peak = self.peak.max(self.surplus);
            return Ok(ControlFlow::Break(()));
        }
        Ok(ControlFlow::Continue(()))
    }

    fn phase(&self) -> i64 {
        self.occ
    }

    /// With equal periods every comparison of the merge repeats, so the
    /// occupancy trajectory does: nothing new can be seen.
    fn skippable(&self, room: u64, send_period: u64, recv_period: u64) -> u64 {
        if send_period == recv_period {
            room
        } else {
            0
        }
    }
}

/// The sender-side recursion.
struct Walk<'a, P> {
    sends: &'a [Node],
    recv: Cursor<'a>,
    pairing: P,
    meter: &'a mut Meter,
    /// Receiver positions recorded at the last iteration boundary of
    /// each active sender loop, outermost first.
    marks: Vec<(usize, u64)>,
}

impl<P: Pairing> Walk<'_, P> {
    /// Walks `sends` against `recvs` and returns the pairing's verdict.
    fn run(sends: &Lane, recvs: &Lane, pairing: P, meter: &mut Meter) -> Result<P, SkewError> {
        let mut walk = Walk {
            sends: &sends.nodes,
            recv: Cursor::new(recvs)?,
            pairing,
            meter,
            marks: Vec::new(),
        };
        // Finished or cut short, the verdict is in the pairing.
        let _ = walk.body(0, sends.nodes.len(), 0)?;
        Ok(walk.pairing)
    }

    /// One pass over the nodes `at..end` of the sender's lane.
    fn body(&mut self, mut at: usize, end: usize, base: u64) -> Result<ControlFlow<()>, SkewError> {
        while at < end {
            let flow = match self.sends[at] {
                Node::Event(cycle) => {
                    at += 1;
                    self.pairing
                        .send(add(base, cycle)?, &mut self.recv, self.meter)?
                }
                Node::Loop(l) => {
                    at += 1 + l.len;
                    self.sender_loop(&l, at - l.len, add(base, l.start)?)?
                }
            };
            if flow.is_break() {
                return Ok(flow);
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// All iterations of the sender loop `l`, whose body starts at node
    /// `first` and whose first iteration starts at cycle `base`.
    fn sender_loop(
        &mut self,
        l: &Loop,
        first: usize,
        mut base: u64,
    ) -> Result<ControlFlow<()>, SkewError> {
        let mark = self.marks.len();
        let mut iter = 0;
        loop {
            let phase = self.pairing.phase();
            self.marks.truncate(mark);
            self.recv.record(&mut self.marks);
            if self.body(first, first + l.len, base)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
            iter += 1;
            if iter == l.count {
                break;
            }
            if let Some(d) = self.recv.shifted_frame(&self.marks[mark..]) {
                // Copies stay copies while the sender has iterations
                // left and the receiver's next event — which the walk
                // looks at — is still inside the shifted loop.
                let f = &self.recv.frames[d];
                let room = (l.count - iter).min(f.count - 1 - f.iter);
                let skip = self.pairing.skippable(room, l.period, f.period);
                if skip > 0 && self.pairing.phase() == phase {
                    self.recv.jump(d, skip)?;
                    iter += skip;
                    if iter == l.count {
                        break;
                    }
                    base = add(base, mul(skip, l.period)?)?;
                }
            }
            base = add(base, l.period)?;
        }
        self.marks.truncate(mark);
        Ok(ControlFlow::Continue(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{fig_6_2_code, fig_6_4_code, paper_loops};
    use crate::timeline::Timeline;

    fn event_loop(count: u64, period: u64, offsets: &[u64]) -> Lane {
        let header = Node::Loop(Loop {
            start: 0,
            count,
            period,
            len: offsets.len(),
        });
        let events = offsets.iter().map(|&at| Node::Event(at));
        Lane {
            nodes: std::iter::once(header).chain(events).collect(),
            events: count * offsets.len() as u64,
        }
    }

    fn one_channel(sends: Lane, recvs: Lane) -> Nests {
        Nests {
            lanes: [[sends, recvs], Default::default()],
            span: 0,
        }
    }

    #[test]
    fn paper_figures_match_the_enumeration() {
        for code in [fig_6_2_code(), fig_6_4_code()] {
            let tl = Timeline::build(&code, &paper_loops());
            let nests = Nests::build(&code, Dir::Right).unwrap();
            let mut meter = Meter::new(CancelToken::none());
            let skew = nests.min_skew(&mut meter).unwrap();
            assert_eq!(skew, tl.min_skew(Dir::Right));
            assert_eq!(nests.span, tl.span);
            for at in [skew, skew + 12] {
                assert_eq!(
                    nests.max_queue_occupancy(at, &mut meter).unwrap(),
                    tl.max_queue_occupancy(Dir::Right, at)
                );
            }
        }
    }

    #[test]
    fn similar_loops_cost_a_handful_of_steps_whatever_the_trip_count() {
        let mut steps = Vec::new();
        for count in [1_000, 1_000_000_000] {
            // One receive at cycle 1 and one send at cycle 4 of a 6-cycle
            // iteration: skew 3, and at that skew one word in flight.
            let nests = one_channel(event_loop(count, 6, &[4]), event_loop(count, 6, &[1]));
            let mut meter = Meter::new(CancelToken::none());
            assert_eq!(nests.min_skew(&mut meter).unwrap(), 3);
            let occ = nests.max_queue_occupancy(3, &mut meter).unwrap();
            assert_eq!(occ[&Chan::X], 1);
            steps.push(meter.steps());
        }
        assert_eq!(steps[0], steps[1]);
        assert!(steps[0] < 20, "{steps:?}");
    }

    #[test]
    fn faster_sender_puts_the_maximum_in_the_last_copy() {
        // The receiver's period is shorter, so `o − i` grows with every
        // iteration and the skew is decided by the last one.
        let nests = one_channel(event_loop(100, 5, &[0]), event_loop(100, 3, &[0]));
        let mut meter = Meter::new(CancelToken::none());
        assert_eq!(nests.min_skew(&mut meter).unwrap(), 99 * 2);
        assert!(meter.steps() < 10);
    }

    #[test]
    fn a_span_beyond_u64_is_an_overflow_error_not_a_wrap() {
        let huge = 1 << 40;
        let nests = one_channel(event_loop(huge, huge, &[0]), event_loop(huge, huge, &[0]));
        let mut meter = Meter::new(CancelToken::none());
        let err = nests.min_skew(&mut meter).unwrap_err();
        assert!(matches!(err, SkewError::Overflow(_)), "{err}");
        let err = nests.max_queue_occupancy(0, &mut meter).unwrap_err();
        assert!(matches!(err, SkewError::Overflow(_)), "{err}");
    }
}
