//! Global reduction over the control channel.
//!
//! Each participating node carries `(flag, operand)` in its requests until
//! it observes a result; the master publishes the reduction in the
//! distribution packet of the first slot in which *all N* requests carry an
//! operand. Like the barrier, the scheme is stateless at the master.
//!
//! The paper names "global reduction" as a provided service without fixing
//! the operator set; we implement the usual associative/commutative ops.

use crate::wire::Request;
use ccr_sim::SimTime;

/// Reduction operator (associative + commutative, so master order is
/// irrelevant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceOp {
    /// Wrapping 32-bit sum.
    #[default]
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND.
    BitAnd,
    /// Bitwise OR.
    BitOr,
}

impl ReduceOp {
    /// Combine two operands.
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::BitAnd => a & b,
            ReduceOp::BitOr => a | b,
        }
    }

    /// Reduce an iterator of operands; `None` when empty.
    pub fn reduce(self, vals: impl IntoIterator<Item = u32>) -> Option<u32> {
        vals.into_iter().reduce(|a, b| self.apply(a, b))
    }
}

/// A node's reduction participation state.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReduceState {
    /// Operand contributed, with submission instant.
    pub pending: Option<(u32, SimTime)>,
}

impl ReduceState {
    /// Submit an operand at `now`.
    ///
    /// # Panics
    /// Panics if a reduction is already in flight from this node (the
    /// service supports one global reduction at a time).
    pub fn submit(&mut self, value: u32, now: SimTime) {
        assert!(
            self.pending.is_none(),
            "reduction already in flight from this node"
        );
        self.pending = Some((value, now));
    }

    /// The operand to put in the next request, if any.
    pub fn operand(&self) -> Option<u32> {
        self.pending.map(|(v, _)| v)
    }

    /// Observe a distribution packet; returns `Some((result, submit_time))`
    /// when a result arrived for this node's pending operand.
    pub fn on_distribution(&mut self, result: Option<u32>) -> Option<(u32, SimTime)> {
        match (result, self.pending) {
            (Some(r), Some((_, t))) => {
                self.pending = None;
                Some((r, t))
            }
            _ => None,
        }
    }
}

/// Master-side rule: publish the reduction iff every request carries an
/// operand.
pub fn reduce_complete(requests: &[Request], op: ReduceOp) -> Option<u32> {
    if requests.is_empty() || requests.iter().any(|r| r.reduce.is_none()) {
        return None;
    }
    op.reduce(requests.iter().map(|r| r.reduce.expect("checked")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators() {
        assert_eq!(ReduceOp::Sum.apply(3, 4), 7);
        assert_eq!(ReduceOp::Sum.apply(u32::MAX, 1), 0); // wrapping
        assert_eq!(ReduceOp::Min.apply(3, 4), 3);
        assert_eq!(ReduceOp::Max.apply(3, 4), 4);
        assert_eq!(ReduceOp::BitAnd.apply(0b110, 0b011), 0b010);
        assert_eq!(ReduceOp::BitOr.apply(0b110, 0b011), 0b111);
    }

    #[test]
    fn reduce_iterator() {
        assert_eq!(ReduceOp::Sum.reduce([1, 2, 3]), Some(6));
        assert_eq!(ReduceOp::Max.reduce([5]), Some(5));
        assert_eq!(ReduceOp::Sum.reduce([]), None);
    }

    #[test]
    fn node_state_lifecycle() {
        let mut s = ReduceState::default();
        assert_eq!(s.operand(), None);
        s.submit(42, SimTime::from_us(3));
        assert_eq!(s.operand(), Some(42));
        assert_eq!(s.on_distribution(None), None);
        assert_eq!(s.on_distribution(Some(99)), Some((99, SimTime::from_us(3))));
        assert_eq!(s.operand(), None);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_submit_panics() {
        let mut s = ReduceState::default();
        s.submit(1, SimTime::ZERO);
        s.submit(2, SimTime::ZERO);
    }

    #[test]
    fn master_waits_for_all_operands() {
        let mut rs = vec![Request::IDLE; 3];
        rs[0].reduce = Some(5);
        rs[1].reduce = Some(7);
        assert_eq!(reduce_complete(&rs, ReduceOp::Sum), None);
        rs[2].reduce = Some(8);
        assert_eq!(reduce_complete(&rs, ReduceOp::Sum), Some(20));
        assert_eq!(reduce_complete(&rs, ReduceOp::Min), Some(5));
        assert_eq!(reduce_complete(&[], ReduceOp::Sum), None);
    }
}
