//! Rich detection patterns: Kleene plus, negation, time windows and
//! event-attribute predicates.
//!
//! The enhanced-expressiveness follow-up to the source paper extends the
//! pair-index machinery from plain activity sequences (`A -> B -> C`) to
//! patterns such as `A B+ !C D WITHIN 2h` with per-event predicates
//! (`A[amount > 100]`). This module defines the *resolved* AST shared by the
//! index-backed engine (`seqdet-query`) and the scan-based SASE oracle
//! (`seqdet-baselines`); both implement the semantics below independently so
//! differential tests compare two genuinely separate interpretations.
//!
//! # Match semantics
//!
//! A [`RichPattern`] is a non-empty list of [`PatternElem`]s. Elements are
//! either **positive** (possibly Kleene `+`) or **negated** (`!`). The first
//! and last element must be positive, and a negated element can never carry
//! Kleene (`!C+` is rejected) — negation asserts *absence*, repetition of an
//! absent thing is meaningless.
//!
//! A **match** inside one trace is an assignment of one event — the
//! **anchor** — to every positive element, such that:
//!
//! 1. **Order.** Anchor positions are strictly increasing in trace order
//!    (timestamps are unique within a trace, so position order and `ts`
//!    order coincide).
//! 2. **Element match.** An event matches an element when its activity
//!    equals the element's activity *and* every predicate of the element
//!    holds for the event (see [`Predicate`]). Predicates are a
//!    conjunction; an event lacking a referenced attribute fails the
//!    predicate — for *every* operator, `!=` included.
//! 3. **Kleene absorption.** A positive Kleene element `B+` additionally
//!    *absorbs* every event that matches the element strictly between its
//!    anchor and the next positive anchor. The anchor is the first
//!    occurrence; absorbed events are not anchors and contribute no
//!    timestamps to the match. A Kleene on the *last* element absorbs
//!    nothing (there is no next anchor to bound it), so a trailing `B+`
//!    is equivalent to `B`.
//! 4. **Negation.** A negated element `!N` sitting between positive
//!    elements `P` and `Q` requires that *no* event matching `N` occurs in
//!    the **forbidden zone**: strictly after the last event matched by `P`
//!    (the anchor, or the last absorbed event when `P` is Kleene) and
//!    strictly before `Q`'s anchor. Multiple negated elements in the same
//!    gap are each checked independently against that zone.
//! 5. **Window.** With `WITHIN w`, the span from the first anchor to the
//!    last anchor must satisfy `last.ts - first.ts <= w`. Because every
//!    absorbed event lies strictly between two anchors, this equals the
//!    span over all matched events — and per rule 4 the negation zones are
//!    also inside the window: `!C` is checked *inside the matched window*,
//!    never against the whole trace.
//!
//! The reported timestamps of a match are the anchor timestamps, one per
//! positive element, in order.
//!
//! **DETECT** reports greedy non-overlapping matches: repeatedly find the
//! *canonical* (lexicographically smallest anchor-position vector) match
//! whose anchors all lie strictly after the previous match's last anchor.
//! Note that under negation the canonical match is not always found by
//! greedy-earliest extension — a violated zone can force a *later* anchor
//! for an earlier element. The oracle in `seqdet-baselines` backtracks;
//! the engine searches per-element position lists with a memo of anchors
//! that cannot be completed, which finds the same match in polynomial
//! time.
//!
//! **ANY MATCH** counts, per trace, the number of distinct valid anchor
//! assignments (saturating at `u64::MAX`) and reports the first `limit`
//! of them in lexicographic anchor order.

use crate::error::LogError;
use crate::intern::{Activity, Attr};
use crate::trace::Ts;

/// Comparison operator of an attribute predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison.
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// Query-language spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Inverse of [`CmpOp::symbol`].
    pub fn from_symbol(s: &str) -> Option<Self> {
        match s {
            "=" => Some(CmpOp::Eq),
            "!=" => Some(CmpOp::Ne),
            "<" => Some(CmpOp::Lt),
            "<=" => Some(CmpOp::Le),
            ">" => Some(CmpOp::Gt),
            ">=" => Some(CmpOp::Ge),
            _ => None,
        }
    }
}

/// Left-hand side of a predicate: either the built-in event timestamp or a
/// named (interned) event attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredKey {
    /// The event's timestamp (`ts` in the query language).
    Ts,
    /// An event attribute by interned key.
    Attr(Attr),
}

/// One predicate over a single event: `key op value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// What is compared.
    pub key: PredKey,
    /// How it is compared.
    pub op: CmpOp,
    /// The literal right-hand side.
    pub value: i64,
}

impl Predicate {
    /// Evaluate against one event, given its timestamp and an attribute
    /// lookup. A missing attribute fails every operator (`!=` included):
    /// predicates assert facts about values the event actually carries.
    /// Timestamps beyond `i64::MAX` also fail rather than wrap.
    #[inline]
    pub fn matches<F>(&self, ts: Ts, lookup: F) -> bool
    where
        F: Fn(Attr) -> Option<i64>,
    {
        let lhs = match self.key {
            PredKey::Ts => i64::try_from(ts).ok(),
            PredKey::Attr(a) => lookup(a),
        };
        match lhs {
            Some(l) => self.op.eval(l, self.value),
            None => false,
        }
    }
}

/// One element of a rich pattern: an activity plus operator flags and
/// predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternElem {
    /// The activity this element matches.
    pub activity: Activity,
    /// `!A` — asserts absence in the gap it occupies.
    pub negated: bool,
    /// `A+` — absorbs adjacent repeats (positive elements only).
    pub kleene: bool,
    /// Conjunction of per-event predicates (`A[amount > 100, region = 3]`).
    pub preds: Vec<Predicate>,
}

impl PatternElem {
    /// A plain positive element with no flags or predicates.
    pub fn plain(activity: Activity) -> Self {
        Self { activity, negated: false, kleene: false, preds: Vec::new() }
    }

    /// Does one event (given by activity + ts + attribute lookup) match
    /// this element's activity and predicates? Negation is *not* applied
    /// here — callers decide what a match of a negated element means.
    #[inline]
    pub fn event_matches<F>(&self, activity: Activity, ts: Ts, lookup: F) -> bool
    where
        F: Fn(Attr) -> Option<i64> + Copy,
    {
        activity == self.activity && self.preds.iter().all(|p| p.matches(ts, lookup))
    }
}

/// A validated rich pattern. See the module docs for the match semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RichPattern {
    elems: Vec<PatternElem>,
}

impl RichPattern {
    /// Validate and wrap a list of elements. Rules: non-empty; first and
    /// last element positive; negated elements never Kleene.
    pub fn new(elems: Vec<PatternElem>) -> Result<Self, LogError> {
        if elems.is_empty() {
            return Err(LogError::InvalidPattern("pattern has no elements".into()));
        }
        if elems.first().is_some_and(|e| e.negated) {
            return Err(LogError::InvalidPattern(
                "pattern must start with a positive element (negation needs a preceding anchor)"
                    .into(),
            ));
        }
        if elems.last().is_some_and(|e| e.negated) {
            return Err(LogError::InvalidPattern(
                "pattern must end with a positive element (negation needs a following anchor)"
                    .into(),
            ));
        }
        if elems.iter().any(|e| e.negated && e.kleene) {
            return Err(LogError::InvalidPattern(
                "a negated element cannot carry Kleene '+' (absence does not repeat)".into(),
            ));
        }
        Ok(Self { elems })
    }

    /// A plain sequence pattern (no flags, no predicates).
    pub fn from_activities(acts: &[Activity]) -> Result<Self, LogError> {
        Self::new(acts.iter().copied().map(PatternElem::plain).collect())
    }

    /// All elements in order.
    #[inline]
    pub fn elems(&self) -> &[PatternElem] {
        &self.elems
    }

    /// Number of elements (positive and negated).
    #[inline]
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Never true — validation rejects empty patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Activities of the positive elements, in order — the *skeleton* used
    /// for pair-index candidate generation. Always non-empty (validation
    /// guarantees a positive first element).
    pub fn skeleton(&self) -> Vec<Activity> {
        self.elems.iter().filter(|e| !e.negated).map(|e| e.activity).collect()
    }

    /// True when every element is plain: a pattern the classic pairwise
    /// join path answers without a verifier.
    pub fn is_plain(&self) -> bool {
        self.elems.iter().all(|e| !e.negated && !e.kleene && e.preds.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(a: u32) -> PatternElem {
        PatternElem::plain(Activity(a))
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(RichPattern::new(vec![]).is_err());
        let neg = PatternElem { negated: true, ..el(0) };
        assert!(RichPattern::new(vec![neg.clone(), el(1)]).is_err());
        assert!(RichPattern::new(vec![el(1), neg.clone()]).is_err());
        let neg_kleene = PatternElem { negated: true, kleene: true, ..el(0) };
        assert!(RichPattern::new(vec![el(1), neg_kleene, el(2)]).is_err());
        // A single negated element is both first and last — rejected.
        assert!(RichPattern::new(vec![neg]).is_err());
    }

    #[test]
    fn validation_accepts_rich_shapes() {
        let p = RichPattern::new(vec![
            el(0),
            PatternElem { kleene: true, ..el(1) },
            PatternElem { negated: true, ..el(2) },
            el(3),
        ])
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.skeleton(), [Activity(0), Activity(1), Activity(3)]);
        assert!(!p.is_plain());
        assert!(RichPattern::from_activities(&[Activity(5)]).unwrap().is_plain());
    }

    #[test]
    fn predicate_missing_attr_fails_all_ops() {
        let none = |_: Attr| None;
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let p = Predicate { key: PredKey::Attr(Attr(0)), op, value: 0 };
            assert!(!p.matches(1, none), "op {op:?} must fail on a missing attribute");
        }
    }

    #[test]
    fn predicate_ts_and_attr_eval() {
        let amount = Attr(3);
        let lookup = |a: Attr| if a == amount { Some(150) } else { None };
        let gt = Predicate { key: PredKey::Attr(amount), op: CmpOp::Gt, value: 100 };
        assert!(gt.matches(7, lookup));
        let ne = Predicate { key: PredKey::Attr(amount), op: CmpOp::Ne, value: 150 };
        assert!(!ne.matches(7, lookup));
        let ts = Predicate { key: PredKey::Ts, op: CmpOp::Le, value: 7 };
        assert!(ts.matches(7, lookup));
        assert!(!ts.matches(8, lookup));
        // ts beyond i64 range fails instead of wrapping.
        assert!(!ts.matches(u64::MAX, lookup));
    }

    #[test]
    fn cmp_symbols_roundtrip() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(CmpOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(CmpOp::from_symbol("=="), None);
    }
}
