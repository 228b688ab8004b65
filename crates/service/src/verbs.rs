//! The verbs the daemon serves: the one list from which the `stats`
//! request counters, the admission gate and the unknown-verb hint are
//! derived, so none of them can drift from what `dispatch` answers.

/// One served verb.
#[derive(Debug, Clone, Copy)]
pub struct Verb {
    /// The request's first token.
    pub name: &'static str,
    /// Whether the verb consumes worker or mutation capacity and therefore
    /// passes through admission control. Administrative verbs and the
    /// coordinator's resync verbs are never shed — a throttled client must
    /// still be able to observe its own throttling.
    pub gated: bool,
}

const fn gated(name: &'static str) -> Verb {
    Verb { name, gated: true }
}

const fn free(name: &'static str) -> Verb {
    Verb { name, gated: false }
}

/// Every verb the daemon serves, in the order `stats` reports them.
pub const VERBS: &[Verb] = &[
    gated("check"),
    gated("map"),
    gated("holes"),
    gated("kfull"),
    gated("prob"),
    gated("cells"),
    gated("mask"),
    gated("kcount"),
    gated("barrier"),
    free("stats"),
    free("fingerprint"),
    free("snapshot"),
    free("restore"),
    gated("fail"),
    gated("move"),
    gated("reseed"),
    free("watch"),
    free("hello"),
    free("ping"),
    free("shutdown"),
];

/// The verb names, in [`VERBS`] order.
pub fn names() -> impl Iterator<Item = &'static str> {
    VERBS.iter().map(|v| v.name)
}

/// Whether `verb` passes through admission control.
#[must_use]
pub fn is_gated(verb: &str) -> bool {
    VERBS.iter().any(|v| v.gated && v.name == verb)
}

/// The error text for a request whose verb the daemon does not serve.
#[must_use]
pub fn unknown_verb(verb: &str) -> String {
    format!(
        "unknown request '{verb}' (known: {})",
        names().collect::<Vec<_>>().join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_the_hint_lists_them_all() {
        let all: Vec<&str> = names().collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(name), "{name} listed twice");
        }
        let hint = unknown_verb("zap");
        assert!(hint.starts_with("unknown request 'zap' (known: check, map,"));
        assert!(all.iter().all(|name| hint.contains(name)));
        assert!(is_gated("check") && is_gated("barrier") && is_gated("move"));
        assert!(!is_gated("stats") && !is_gated("watch") && !is_gated("zap"));
    }
}
