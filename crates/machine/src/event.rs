//! The execution-core selector: the dense stage loop or the sparse
//! event core (DESIGN.md §16).

/// Which execution core an engine should use.
///
/// * [`CoreKind::Dense`] — the historical stage loop: every stage visits
///   all `n` guest nodes.
/// * [`CoreKind::Event`] — the discrete-event core: per-stage work is
///   proportional to the *active* points (plus O(p) bookkeeping), with
///   quiescent regions represented by their closed form until touched.
///   Reports are bit-identical to the dense core.
///
/// Only the naive engines (naive1, naive2) have an event core; they
/// fall back to the dense loop when a run does not satisfy its
/// preconditions (see `bsmp_sim::event1`).  Every other engine has one
/// loop and ignores the choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoreKind {
    /// Dense stage loop over all `n` nodes (the default).
    #[default]
    Dense,
    /// Event-driven sparse core with activity frontiers.
    Event,
}

impl CoreKind {
    /// Parse a CLI-style name (`"dense"` / `"event"`).
    pub fn parse(s: &str) -> Option<CoreKind> {
        match s {
            "dense" => Some(CoreKind::Dense),
            "event" => Some(CoreKind::Event),
            _ => None,
        }
    }
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoreKind::Dense => "dense",
            CoreKind::Event => "event",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_kind_parses_and_displays() {
        assert_eq!(CoreKind::parse("dense"), Some(CoreKind::Dense));
        assert_eq!(CoreKind::parse("event"), Some(CoreKind::Event));
        assert_eq!(CoreKind::parse("banana"), None);
        assert_eq!(CoreKind::default(), CoreKind::Dense);
        assert_eq!(CoreKind::Event.to_string(), "event");
    }
}
