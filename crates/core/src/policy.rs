//! The pattern-matching policies.

/// The two event-sequence detection policies of the paper (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// **SC** — all matching events appear strictly one after the other,
    /// with no other event in between (subsequence matching, Flink CEP's
    /// default contiguity).
    StrictContiguity,
    /// **STNM** — irrelevant events are skipped until the next matching
    /// event of the pattern; matches never overlap.
    SkipTillNextMatch,
}

impl Policy {
    /// Short stable name, also used as the persisted config string.
    pub fn name(self) -> &'static str {
        match self {
            Policy::StrictContiguity => "SC",
            Policy::SkipTillNextMatch => "STNM",
        }
    }

    /// Parse the persisted name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "SC" => Some(Policy::StrictContiguity),
            "STNM" => Some(Policy::SkipTillNextMatch),
            _ => None,
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in [Policy::StrictContiguity, Policy::SkipTillNextMatch] {
            assert_eq!(Policy::from_name(p.name()), Some(p));
        }
        assert_eq!(Policy::from_name("bogus"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Policy::SkipTillNextMatch.to_string(), "STNM");
    }
}
