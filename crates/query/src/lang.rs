//! A small textual query language for the query-processor service.
//!
//! The paper's query processor is a standalone service (Java Spring)
//! receiving user queries; this module gives the Rust reproduction an
//! equivalent surface. Three statements mirror the three query families:
//!
//! ```text
//! DETECT   search -> view -> checkout [WITHIN 100] [ANY MATCH] [LIMIT 10]
//! DETECT   login 'add to cart'+ !cancel checkout[amount > 100] WITHIN 2h
//! STATS    search -> view -> checkout [ALL PAIRS]
//! CONTINUE search -> view USING hybrid [K 5] [MAX GAP 100] [AT 1]
//! ```
//!
//! * activities are separated by `->` or plain adjacency (`A B+ !C D`);
//!   names with spaces, arrows or operator characters are single-quoted
//!   (`'add to cart'`),
//! * keywords are case-insensitive, activity names are not,
//! * `DETECT` patterns additionally support the rich operators
//!   (see [`crate::richpat`]):
//!   - `name+` — Kleene plus: the first occurrence anchors, adjacent
//!     repeats up to the next anchor are absorbed,
//!   - `!name` — negation: no such event inside the enclosing gap of the
//!     matched window,
//!   - `name[key > 100, key2 = 3]` — per-event attribute predicates with
//!     operators `=` `!=` `<` `<=` `>` `>=`; the unquoted key `ts` is the
//!     event's timestamp,
//! * `WITHIN n` bounds the completion span (CEP-style window); the number
//!   takes an optional `s`/`m`/`h`/`d` suffix (`WITHIN 2h` = 7200),
//! * `ANY MATCH` switches detection to skip-till-any-match (§7 extension),
//! * `USING accurate|fast|hybrid` picks the continuation flavor
//!   (default `accurate`); `AT p` asks for insertion at position `p`
//!   instead of appending (§7 extension).
//!
//! An unquoted word spelled like a tail keyword (`WITHIN`, `ANY`, `LIMIT`)
//! ends an adjacency-separated pattern; quote it (or put it first, or after
//! an explicit `->`) to use it as an activity name.
//!
//! Plain `DETECT` patterns without `WITHIN` execute on the classic
//! pairwise-join path. Any rich operator, and any `WITHIN` on an STNM
//! index, routes the query through [`QueryEngine::detect_rich`] /
//! [`QueryEngine::detect_rich_any`], so every windowed answer has one
//! semantics: the greedy non-overlapping matches of `seqdet_log::richpat`
//! whose span fits the window, equal to the scan oracle. A one-element
//! pattern under `WITHIN` returns every occurrence, like plain `DETECT a`.
//! On an SC index a plain windowed `DETECT` keeps the join's contiguous
//! occurrences whose span fits; rich patterns there are refused.

use crate::continuation::ContinuationMethod;
use crate::engine::QueryEngine;
use crate::{Proposition, QueryError, Result};
use seqdet_core::Policy;
use seqdet_log::{CmpOp, LogError, PatternElem, PredKey, Predicate, RichPattern, Ts};
use seqdet_storage::KvStore;
use std::fmt;

/// One comparison of a `DETECT` predicate list, before catalog resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct PredSpec {
    /// Attribute key name (`ts` means the event timestamp).
    pub key: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: i64,
}

/// One `DETECT` pattern element, before catalog resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemSpec {
    /// Activity name.
    pub name: String,
    /// `!name` — negated.
    pub negated: bool,
    /// `name+` — Kleene plus.
    pub kleene: bool,
    /// `name[…]` — predicate conjunction.
    pub preds: Vec<PredSpec>,
}

impl ElemSpec {
    /// A plain positive element.
    #[cfg(test)]
    fn plain(name: impl Into<String>) -> Self {
        Self { name: name.into(), negated: false, kleene: false, preds: Vec::new() }
    }

    /// No rich operator on this element?
    fn is_plain(&self) -> bool {
        !self.negated && !self.kleene && self.preds.is_empty()
    }
}

/// A parsed query statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `DETECT` — pattern detection (plain or rich).
    Detect {
        /// Pattern elements, in order.
        elements: Vec<ElemSpec>,
        /// `WITHIN n` window bound.
        within: Option<Ts>,
        /// `ANY MATCH` — skip-till-any-match semantics.
        any_match: bool,
        /// `LIMIT n` — cap on reported matches/examples.
        limit: Option<usize>,
    },
    /// `STATS` — pairwise statistics.
    Stats {
        /// Activity names, in pattern order.
        pattern: Vec<String>,
        /// `ALL PAIRS` — the tighter all-pairs bound.
        all_pairs: bool,
    },
    /// `CONTINUE` — pattern continuation.
    Continue {
        /// Activity names, in pattern order.
        pattern: Vec<String>,
        /// Flavor name: `accurate` / `fast` / `hybrid`.
        method: String,
        /// `K n` for hybrid.
        k: usize,
        /// `MAX GAP n`.
        max_gap: Option<Ts>,
        /// `AT p` — insertion position instead of append.
        at: Option<usize>,
    },
}

/// Query-language parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> std::result::Result<T, ParseError> {
    Err(ParseError { message: message.into() })
}

/// One lexical token. Quoted names never act as keywords, operators or
/// numbers — `'within'` is always an activity called `within`.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Unquoted word: name, keyword or number.
    Word(String),
    /// Single-quoted name.
    Quoted(String),
    /// Operator / punctuation.
    Op(&'static str),
}

impl Tok {
    fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn is_op(&self, op: &str) -> bool {
        matches!(self, Tok::Op(o) if *o == op)
    }

    /// The activity/attribute name this token spells, if it is a name.
    fn name(&self) -> Option<&str> {
        match self {
            Tok::Word(w) => Some(w),
            Tok::Quoted(q) => Some(q),
            Tok::Op(_) => None,
        }
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "{w:?}"),
            Tok::Quoted(q) => write!(f, "'{q}'"),
            Tok::Op(o) => write!(f, "{o:?}"),
        }
    }
}

/// Characters that always terminate an unquoted word and start an operator.
const OP_CHARS: &str = "![],<>=+";

/// Tokenize: whitespace-separated words, single-quoted strings kept intact
/// (with `''` as an escaped quote), and operators as their own tokens even
/// when glued to names (`a->b`, `B+`, `!C`, `A[amount>100]`).
fn tokenize(input: &str) -> std::result::Result<Vec<Tok>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('\'') => {
                        if chars.peek() == Some(&'\'') {
                            chars.next();
                            s.push('\'');
                        } else {
                            break;
                        }
                    }
                    Some(ch) => s.push(ch),
                    None => return err("unterminated quoted string"),
                }
            }
            tokens.push(Tok::Quoted(s));
        } else if c == '-' && {
            let mut look = chars.clone();
            look.next();
            look.peek() == Some(&'>')
        } {
            chars.next();
            chars.next();
            tokens.push(Tok::Op("->"));
        } else if OP_CHARS.contains(c) {
            chars.next();
            let two = matches!(c, '!' | '<' | '>') && chars.peek() == Some(&'=');
            if two {
                chars.next();
            }
            tokens.push(Tok::Op(match (c, two) {
                ('!', true) => "!=",
                ('!', false) => "!",
                ('<', true) => "<=",
                ('<', false) => "<",
                ('>', true) => ">=",
                ('>', false) => ">",
                ('[', _) => "[",
                (']', _) => "]",
                (',', _) => ",",
                ('=', _) => "=",
                // '+' is the only remaining OP_CHARS member.
                _ => "+",
            }));
        } else {
            let mut s = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '\'' || OP_CHARS.contains(ch) {
                    break;
                }
                if ch == '-' {
                    let mut look = chars.clone();
                    look.next();
                    if look.peek() == Some(&'>') {
                        break;
                    }
                }
                s.push(ch);
                chars.next();
            }
            tokens.push(Tok::Word(s));
        }
    }
    Ok(tokens)
}

/// Parse one `DETECT` element: `'!'? name '+'? ('[' pred (',' pred)* ']')?`.
/// Returns the element and the number of tokens consumed.
fn parse_elem(toks: &[Tok], start: usize) -> std::result::Result<(ElemSpec, usize), ParseError> {
    let mut i = start;
    let negated = toks.get(i).is_some_and(|t| t.is_op("!"));
    if negated {
        i += 1;
    }
    let name = match toks.get(i) {
        Some(t) => match t.name() {
            Some(n) => n.to_owned(),
            None => return err(format!("expected an activity name, got {t}")),
        },
        None => return err("expected an activity name"),
    };
    i += 1;
    let kleene = toks.get(i).is_some_and(|t| t.is_op("+"));
    if kleene {
        i += 1;
    }
    let mut preds = Vec::new();
    if toks.get(i).is_some_and(|t| t.is_op("[")) {
        i += 1;
        loop {
            let (pred, used) = parse_pred(toks, i)?;
            preds.push(pred);
            i += used;
            match toks.get(i) {
                Some(t) if t.is_op(",") => i += 1,
                Some(t) if t.is_op("]") => {
                    i += 1;
                    break;
                }
                Some(t) => return err(format!("expected ',' or ']' after a predicate, got {t}")),
                None => return err("unterminated predicate list (missing ']')"),
            }
        }
    }
    Ok((ElemSpec { name, negated, kleene, preds }, i - start))
}

/// Parse one predicate: `key op number` with `op` ∈ `= != < <= > >=`.
fn parse_pred(toks: &[Tok], start: usize) -> std::result::Result<(PredSpec, usize), ParseError> {
    let key = match toks.get(start) {
        Some(t) => match t.name() {
            Some(n) => n.to_owned(),
            None => return err(format!("expected an attribute key, got {t}")),
        },
        None => return err("expected an attribute key"),
    };
    let op = match toks.get(start + 1) {
        Some(Tok::Op(o)) => match CmpOp::from_symbol(o) {
            Some(op) => op,
            None => return err(format!("{o:?} is not a comparison (use = != < <= > >=)")),
        },
        Some(t) => return err(format!("expected a comparison operator, got {t}")),
        None => return err("predicate is missing its comparison operator"),
    };
    let value = match toks.get(start + 2) {
        Some(Tok::Word(w)) => match w.parse::<i64>() {
            Ok(v) => v,
            Err(_) => return err(format!("predicate expects an integer, got {w:?}")),
        },
        Some(t) => return err(format!("predicate expects an integer, got {t}")),
        None => return err("predicate is missing its value"),
    };
    Ok((PredSpec { key, op, value }, 3))
}

/// Parse the `DETECT` pattern: elements separated by `->` or adjacency.
/// An unquoted tail keyword ends the pattern unless it directly follows an
/// explicit `->` (or would be the first element).
fn parse_elements(toks: &[Tok]) -> std::result::Result<(Vec<ElemSpec>, usize), ParseError> {
    let mut elements: Vec<ElemSpec> = Vec::new();
    let mut i = 0;
    let mut after_arrow = false;
    loop {
        match toks.get(i) {
            None => {
                if after_arrow {
                    return err("pattern ends with a dangling '->'");
                }
                break;
            }
            Some(t) if t.is_op("->") => {
                return err("pattern must not start with or repeat '->'");
            }
            Some(t)
                if !after_arrow
                    && !elements.is_empty()
                    && (t.is_kw("WITHIN") || t.is_kw("ANY") || t.is_kw("LIMIT")) =>
            {
                break;
            }
            Some(_) => {}
        }
        let (elem, used) = parse_elem(toks, i)?;
        elements.push(elem);
        i += used;
        after_arrow = toks.get(i).is_some_and(|t| t.is_op("->"));
        if after_arrow {
            i += 1;
        }
    }
    if elements.is_empty() {
        return err("expected a pattern");
    }
    Ok((elements, i))
}

/// Parse the leading plain pattern of `STATS` / `CONTINUE`:
/// `name (-> name)*`. Rich operators are rejected with a pointer to
/// `DETECT`, the only statement that understands them.
fn parse_plain_pattern(
    toks: &[Tok],
    stmt: &str,
) -> std::result::Result<(Vec<String>, usize), ParseError> {
    let mut pattern = Vec::new();
    let mut i = 0;
    while let Some(tok) = toks.get(i) {
        match tok {
            Tok::Op("->") => return err("pattern must not start with or repeat '->'"),
            Tok::Op(o) => {
                return err(format!(
                    "operator {o:?} is not valid in {stmt} — \
                     Kleene/negation/predicates are DETECT-only"
                ));
            }
            Tok::Word(w) => pattern.push(w.clone()),
            Tok::Quoted(q) => pattern.push(q.clone()),
        }
        i += 1;
        if toks.get(i).is_some_and(|t| t.is_op("->")) {
            i += 1;
            if toks.get(i).is_none() {
                return err("pattern ends with a dangling '->'");
            }
        } else {
            break;
        }
    }
    if pattern.is_empty() {
        return err("expected a pattern");
    }
    Ok((pattern, i))
}

fn parse_number(toks: &[Tok], i: usize, what: &str) -> std::result::Result<u64, ParseError> {
    match toks.get(i) {
        Some(Tok::Word(t)) => t
            .parse()
            .map_err(|_| ParseError { message: format!("{what} expects a number, got {t:?}") }),
        Some(t) => err(format!("{what} expects a number, got {t}")),
        None => err(format!("{what} expects a number")),
    }
}

/// Parse a `WITHIN` duration: a number with an optional `s`/`m`/`h`/`d`
/// suffix (seconds, minutes, hours, days — `2h` = 7200).
fn parse_duration(toks: &[Tok], i: usize) -> std::result::Result<Ts, ParseError> {
    let Some(Tok::Word(w)) = toks.get(i) else {
        return match toks.get(i) {
            Some(t) => err(format!("WITHIN expects a duration, got {t}")),
            None => err("WITHIN expects a duration"),
        };
    };
    let (digits, unit): (&str, Ts) = match w.char_indices().last() {
        Some((i, 's' | 'S')) => (w.get(..i).unwrap_or(""), 1),
        Some((i, 'm' | 'M')) => (w.get(..i).unwrap_or(""), 60),
        Some((i, 'h' | 'H')) => (w.get(..i).unwrap_or(""), 3600),
        Some((i, 'd' | 'D')) => (w.get(..i).unwrap_or(""), 86_400),
        _ => (w.as_str(), 1),
    };
    let n: Ts = digits.parse().map_err(|_| ParseError {
        message: format!("WITHIN expects a duration like 100, 30s or 2h, got {w:?}"),
    })?;
    n.checked_mul(unit)
        .ok_or_else(|| ParseError { message: format!("WITHIN duration {w:?} overflows") })
}

/// Parse one statement.
pub fn parse_query(input: &str) -> std::result::Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    let Some(head) = tokens.first() else { return err("empty query") };
    let rest = tokens.get(1..).unwrap_or(&[]);
    if head.is_kw("DETECT") {
        let (elements, mut i) = parse_elements(rest)?;
        let (mut within, mut any_match, mut limit) = (None, false, None);
        while let Some(tok) = rest.get(i) {
            if tok.is_kw("WITHIN") {
                within = Some(parse_duration(rest, i + 1)?);
                i += 2;
            } else if tok.is_kw("ANY") && rest.get(i + 1).is_some_and(|t| t.is_kw("MATCH")) {
                any_match = true;
                i += 2;
            } else if tok.is_kw("LIMIT") {
                limit = Some(parse_number(rest, i + 1, "LIMIT")? as usize);
                i += 2;
            } else {
                return err(format!("unexpected token {tok} in DETECT"));
            }
        }
        Ok(Query::Detect { elements, within, any_match, limit })
    } else if head.is_kw("STATS") {
        let (pattern, mut i) = parse_plain_pattern(rest, "STATS")?;
        let mut all_pairs = false;
        while let Some(tok) = rest.get(i) {
            if tok.is_kw("ALL") && rest.get(i + 1).is_some_and(|t| t.is_kw("PAIRS")) {
                all_pairs = true;
                i += 2;
            } else {
                return err(format!("unexpected token {tok} in STATS"));
            }
        }
        Ok(Query::Stats { pattern, all_pairs })
    } else if head.is_kw("CONTINUE") {
        let (pattern, mut i) = parse_plain_pattern(rest, "CONTINUE")?;
        let mut method = "accurate".to_owned();
        let mut k = 5usize;
        let (mut max_gap, mut at) = (None, None);
        while let Some(tok) = rest.get(i) {
            if tok.is_kw("USING") {
                let m = match rest.get(i + 1).and_then(Tok::name) {
                    Some(m) => m.to_ascii_lowercase(),
                    None => return err("USING expects a method"),
                };
                if !["accurate", "fast", "hybrid"].contains(&m.as_str()) {
                    return err(format!("unknown continuation method {m:?}"));
                }
                method = m;
                i += 2;
            } else if tok.is_kw("K") {
                k = parse_number(rest, i + 1, "K")? as usize;
                i += 2;
            } else if tok.is_kw("MAX") && rest.get(i + 1).is_some_and(|t| t.is_kw("GAP")) {
                max_gap = Some(parse_number(rest, i + 2, "MAX GAP")?);
                i += 3;
            } else if tok.is_kw("AT") {
                at = Some(parse_number(rest, i + 1, "AT")? as usize);
                i += 2;
            } else {
                return err(format!("unexpected token {tok} in CONTINUE"));
            }
        }
        Ok(Query::Continue { pattern, method, k, max_gap, at })
    } else {
        err(format!("unknown statement {head} (expected DETECT, STATS or CONTINUE)"))
    }
}

/// Execution result of a textual query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `DETECT` result.
    Detection(crate::DetectResult),
    /// `DETECT … ANY MATCH` result.
    AnyMatch(crate::AnyMatchResult),
    /// `STATS` result.
    Stats(crate::PatternStats),
    /// `CONTINUE` result.
    Continuations {
        /// Ranked next-event propositions.
        propositions: Vec<Proposition>,
        /// How complete the answer is (continuation results have no struct
        /// of their own to carry it, so the output variant does).
        coverage: seqdet_storage::Coverage,
    },
}

/// Resolve parsed elements against the engine's catalog into a validated
/// [`RichPattern`]. Unknown activity or attribute names error (a typo
/// almost never means "match nothing"); the unquoted key `ts` resolves to
/// the built-in timestamp.
fn resolve_rich<S: KvStore>(engine: &QueryEngine<S>, elements: &[ElemSpec]) -> Result<RichPattern> {
    let catalog = engine.catalog();
    let mut elems = Vec::with_capacity(elements.len());
    for spec in elements {
        let activity = catalog
            .activity(&spec.name)
            .ok_or_else(|| QueryError::UnknownActivity(spec.name.clone()))?;
        let mut preds = Vec::with_capacity(spec.preds.len());
        for p in &spec.preds {
            let key = if p.key == "ts" {
                PredKey::Ts
            } else {
                PredKey::Attr(
                    catalog
                        .attr(&p.key)
                        .ok_or_else(|| QueryError::UnknownAttribute(p.key.clone()))?,
                )
            };
            preds.push(Predicate { key, op: p.op, value: p.value });
        }
        elems.push(PatternElem { activity, negated: spec.negated, kleene: spec.kleene, preds });
    }
    RichPattern::new(elems).map_err(|e| match e {
        LogError::InvalidPattern(m) => QueryError::InvalidPattern(m),
        other => QueryError::InvalidPattern(other.to_string()),
    })
}

/// Execute a parsed query against an engine.
pub fn execute<S: KvStore>(engine: &QueryEngine<S>, query: &Query) -> Result<QueryOutput> {
    fn names(pattern: &[String]) -> Vec<&str> {
        pattern.iter().map(String::as_str).collect()
    }
    match query {
        Query::Detect { elements, within, any_match, limit } => {
            let plain = elements.iter().all(ElemSpec::is_plain);
            // Plain patterns without a window run on the pairwise join. A
            // window under STNM needs the per-trace evaluator: the greedy
            // pair chains of the index are not the windowed matches. Under
            // SC the join's contiguous occurrences are every match there
            // is, so there a window only drops the wide ones.
            let on_join = match within {
                None => true,
                Some(_) => !*any_match && engine.policy() == Policy::StrictContiguity,
            };
            if plain && on_join {
                let pattern: Vec<&str> = elements.iter().map(|e| e.name.as_str()).collect();
                let p = engine.pattern(&pattern)?;
                if *any_match {
                    let r = engine.detect_any_match(&p, limit.unwrap_or(3))?;
                    Ok(QueryOutput::AnyMatch(r))
                } else {
                    let mut r = engine.detect(&p)?;
                    if let Some(w) = within {
                        r.matches.retain(|m| m.duration() <= *w);
                    }
                    if let Some(l) = limit {
                        r.matches.truncate(*l);
                    }
                    Ok(QueryOutput::Detection(r))
                }
            } else {
                let rp = resolve_rich(engine, elements)?;
                if *any_match {
                    let r = engine.detect_rich_any(&rp, *within, limit.unwrap_or(3))?;
                    Ok(QueryOutput::AnyMatch(r))
                } else {
                    let mut r = engine.detect_rich(&rp, *within)?;
                    if let Some(l) = limit {
                        r.matches.truncate(*l);
                    }
                    Ok(QueryOutput::Detection(r))
                }
            }
        }
        Query::Stats { pattern, all_pairs } => {
            let p = engine.pattern(&names(pattern))?;
            let s = if *all_pairs { engine.stats_all_pairs(&p)? } else { engine.stats(&p)? };
            Ok(QueryOutput::Stats(s))
        }
        Query::Continue { pattern, method, k, max_gap, at } => {
            let p = engine.pattern(&names(pattern))?;
            if let Some(pos) = at {
                let propositions = engine.continuations_at(&p, *pos)?;
                let coverage = engine.coverage();
                return Ok(QueryOutput::Continuations { propositions, coverage });
            }
            let m = match method.as_str() {
                "fast" => ContinuationMethod::Fast,
                "hybrid" => ContinuationMethod::Hybrid { k: *k, max_gap: *max_gap },
                _ => ContinuationMethod::Accurate { max_gap: *max_gap },
            };
            let propositions = engine.continuations(&p, m)?;
            let coverage = engine.coverage();
            Ok(QueryOutput::Continuations { propositions, coverage })
        }
    }
}

/// Parse and execute in one step.
pub fn run<S: KvStore>(engine: &QueryEngine<S>, input: &str) -> Result<QueryOutput> {
    let query = parse_query(input).map_err(|e| QueryError::InvalidPattern(e.message))?;
    execute(engine, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::{IndexConfig, Indexer};
    use seqdet_log::EventLogBuilder;

    #[test]
    fn tokenizer_handles_arrows_and_quotes() {
        assert_eq!(
            tokenize("a->b -> c").unwrap(),
            [
                Tok::Word("a".into()),
                Tok::Op("->"),
                Tok::Word("b".into()),
                Tok::Op("->"),
                Tok::Word("c".into()),
            ]
        );
        assert_eq!(
            tokenize("'add to cart'->x").unwrap(),
            [Tok::Quoted("add to cart".into()), Tok::Op("->"), Tok::Word("x".into())]
        );
        assert_eq!(tokenize("'it''s'").unwrap(), [Tok::Quoted("it's".into())]);
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn tokenizer_splits_rich_operators() {
        assert_eq!(
            tokenize("!C+ B[amount>=100,x!=-5]").unwrap(),
            [
                Tok::Op("!"),
                Tok::Word("C".into()),
                Tok::Op("+"),
                Tok::Word("B".into()),
                Tok::Op("["),
                Tok::Word("amount".into()),
                Tok::Op(">="),
                Tok::Word("100".into()),
                Tok::Op(","),
                Tok::Word("x".into()),
                Tok::Op("!="),
                Tok::Word("-5".into()),
                Tok::Op("]"),
            ]
        );
        // A lone '-' stays inside words (hyphenated names, negative ints).
        assert_eq!(tokenize("add-to-cart").unwrap(), [Tok::Word("add-to-cart".into())]);
    }

    #[test]
    fn parse_detect_variants() {
        let q = parse_query("DETECT a -> b -> c WITHIN 100 LIMIT 5").unwrap();
        assert_eq!(
            q,
            Query::Detect {
                elements: vec![ElemSpec::plain("a"), ElemSpec::plain("b"), ElemSpec::plain("c")],
                within: Some(100),
                any_match: false,
                limit: Some(5),
            }
        );
        let q = parse_query("detect a->b any match").unwrap();
        assert!(matches!(q, Query::Detect { any_match: true, .. }));
    }

    #[test]
    fn parse_rich_detect() {
        let q = parse_query("DETECT A B+ !C D[amount > 100, ts <= 50] WITHIN 2h").unwrap();
        let Query::Detect { elements, within, any_match, limit } = q else {
            panic!("expected Detect");
        };
        assert_eq!(within, Some(7200));
        assert!(!any_match);
        assert_eq!(limit, None);
        assert_eq!(elements.len(), 4);
        assert_eq!(elements[0], ElemSpec::plain("A"));
        assert_eq!(elements[1], ElemSpec { kleene: true, ..ElemSpec::plain("B") });
        assert_eq!(elements[2], ElemSpec { negated: true, ..ElemSpec::plain("C") });
        assert_eq!(
            elements[3].preds,
            [
                PredSpec { key: "amount".into(), op: CmpOp::Gt, value: 100 },
                PredSpec { key: "ts".into(), op: CmpOp::Le, value: 50 },
            ]
        );
    }

    #[test]
    fn adjacency_vs_keyword_disambiguation() {
        // Unquoted WITHIN ends the pattern; quoted is an activity.
        let q = parse_query("DETECT a b WITHIN 5").unwrap();
        let Query::Detect { elements, within, .. } = q else { panic!() };
        assert_eq!(elements.len(), 2);
        assert_eq!(within, Some(5));
        let q = parse_query("DETECT a 'within' b").unwrap();
        let Query::Detect { elements, within, .. } = q else { panic!() };
        assert_eq!(elements.len(), 3);
        assert_eq!(elements[1].name, "within");
        assert_eq!(within, None);
        // After an explicit '->' the keyword is forced to be a name.
        let q = parse_query("DETECT a -> within").unwrap();
        let Query::Detect { elements, .. } = q else { panic!() };
        assert_eq!(elements.len(), 2);
        assert_eq!(elements[1].name, "within");
    }

    #[test]
    fn durations_take_suffixes() {
        for (text, expect) in [("30s", 30), ("2m", 120), ("2h", 7200), ("1d", 86_400), ("7", 7)] {
            let q = parse_query(&format!("DETECT a -> b WITHIN {text}")).unwrap();
            assert!(matches!(q, Query::Detect { within: Some(w), .. } if w == expect), "{text}");
        }
        assert!(parse_query("DETECT a -> b WITHIN 99999999999999999999d").is_err());
        assert!(parse_query("DETECT a -> b WITHIN x").is_err());
    }

    #[test]
    fn parse_stats_and_continue() {
        let q = parse_query("STATS a -> b ALL PAIRS").unwrap();
        assert_eq!(q, Query::Stats { pattern: vec!["a".into(), "b".into()], all_pairs: true });
        let q = parse_query("CONTINUE a USING hybrid K 3 MAX GAP 50").unwrap();
        assert_eq!(
            q,
            Query::Continue {
                pattern: vec!["a".into()],
                method: "hybrid".into(),
                k: 3,
                max_gap: Some(50),
                at: None,
            }
        );
        let q = parse_query("CONTINUE a -> b AT 1").unwrap();
        assert!(matches!(q, Query::Continue { at: Some(1), .. }));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("").is_err());
        assert!(parse_query("FROBNICATE a").is_err());
        assert!(parse_query("DETECT -> a").is_err());
        assert!(parse_query("DETECT a ->").is_err());
        assert!(parse_query("DETECT a -> b WITHIN x").is_err());
        assert!(parse_query("CONTINUE a USING bogus").is_err());
        assert!(parse_query("STATS a EXTRA").is_err());
        // Rich-operator mistakes get specific messages.
        assert!(parse_query("DETECT a[amount >").is_err());
        assert!(parse_query("DETECT a[amount > b]").is_err());
        assert!(parse_query("DETECT a[amount ! 3]").is_err());
        assert!(parse_query("DETECT !").is_err());
        assert!(parse_query("DETECT a[").is_err());
        assert!(parse_query("STATS a+ -> b").is_err());
        assert!(parse_query("CONTINUE !a").is_err());
    }

    #[test]
    fn case_sensitivity_rules() {
        // Keywords fold case; activity names do not.
        let q = parse_query("dEtEcT Send -> SEND").unwrap();
        match q {
            Query::Detect { elements, .. } => {
                let names: Vec<_> = elements.iter().map(|e| e.name.as_str()).collect();
                assert_eq!(names, ["Send", "SEND"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn engine() -> QueryEngine<seqdet_storage::MemStore> {
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1);
        b.add("t1", "B", 2).attr("amount", 150);
        b.add("t1", "C", 30);
        b.add("t2", "A", 1);
        b.add("t2", "B", 5).attr("amount", 50);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        QueryEngine::new(ix.store()).unwrap()
    }

    #[test]
    fn execute_detect_with_window() {
        let e = engine();
        let out = run(&e, "DETECT A -> B").unwrap();
        match out {
            QueryOutput::Detection(r) => assert_eq!(r.total_completions(), 2),
            other => panic!("unexpected {other:?}"),
        }
        let out = run(&e, "DETECT A -> B WITHIN 2").unwrap();
        match out {
            QueryOutput::Detection(r) => assert_eq!(r.total_completions(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let out = run(&e, "DETECT A -> C ANY MATCH").unwrap();
        match out {
            QueryOutput::AnyMatch(r) => assert_eq!(r.total(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sc_window_keeps_the_contiguous_matches_that_fit() {
        let mut b = EventLogBuilder::new();
        b.add("t1", "A", 1).add("t1", "B", 2).add("t1", "A", 3).add("t1", "B", 9);
        let mut ix = Indexer::new(IndexConfig::new(Policy::StrictContiguity));
        ix.index_log(&b.build()).unwrap();
        let e = QueryEngine::new(ix.store()).unwrap();
        match run(&e, "DETECT A -> B WITHIN 2").unwrap() {
            QueryOutput::Detection(r) => {
                assert_eq!(r.total_completions(), 1);
                assert_eq!(r.matches[0].timestamps, vec![1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Skip-till operators have no SC answer, windowed or not.
        assert!(matches!(
            run(&e, "DETECT A B ANY MATCH WITHIN 2"),
            Err(QueryError::InvalidPattern(_))
        ));
        assert!(matches!(run(&e, "DETECT A !A B WITHIN 2"), Err(QueryError::InvalidPattern(_))));
    }

    #[test]
    fn execute_rich_detect() {
        let e = engine();
        // Predicate filters t2's cheap B out.
        match run(&e, "DETECT A B[amount > 100]").unwrap() {
            QueryOutput::Detection(r) => {
                assert_eq!(r.total_completions(), 1);
                assert_eq!(r.matches[0].timestamps, vec![1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Negation: no C between A and B — true in both traces.
        match run(&e, "DETECT A !C B").unwrap() {
            QueryOutput::Detection(r) => assert_eq!(r.total_completions(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // ANY MATCH with WITHIN routes through the rich matcher.
        match run(&e, "DETECT A B ANY MATCH WITHIN 2").unwrap() {
            QueryOutput::AnyMatch(r) => assert_eq!(r.total(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown attribute key errors; structural misuse errors.
        assert!(matches!(
            run(&e, "DETECT A B[bogus > 1]"),
            Err(QueryError::UnknownAttribute(k)) if k == "bogus"
        ));
        assert!(matches!(run(&e, "DETECT !A B"), Err(QueryError::InvalidPattern(_))));
    }

    #[test]
    fn execute_stats_and_continue() {
        let e = engine();
        match run(&e, "STATS A -> B").unwrap() {
            QueryOutput::Stats(s) => assert_eq!(s.max_completions, 2),
            other => panic!("unexpected {other:?}"),
        }
        match run(&e, "CONTINUE A USING fast").unwrap() {
            QueryOutput::Continuations { propositions, coverage } => {
                assert!(!propositions.is_empty());
                assert!(coverage.is_full());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn execute_surfaces_unknown_activities() {
        let e = engine();
        assert!(run(&e, "DETECT A -> NOPE").is_err());
        assert!(run(&e, "GIBBERISH").is_err());
    }

    #[test]
    fn detect_limit_truncates() {
        let e = engine();
        match run(&e, "DETECT A -> B LIMIT 1").unwrap() {
            QueryOutput::Detection(r) => assert_eq!(r.total_completions(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
