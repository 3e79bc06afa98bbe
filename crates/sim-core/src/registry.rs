//! The one string-registry lookup every keyed enum shares.
//!
//! Scenario specs resolve five registries (workloads, backends,
//! routers, policies, function kinds) by string key; each enum keeps
//! its own `ALL` array and `key()` accessor, and delegates the lookup
//! — and the "unknown X (valid: ...)" error shape — here, so a typo'd
//! spec always answers with the full list of what it could have said.

/// Finds the entry of `all` whose `key_of` equals `key`; `Err` names
/// the registry (`what`), lists every valid key, and — when the miss
/// is close to a valid key — appends a did-you-mean hint.
pub fn lookup<T: Copy>(
    what: &str,
    all: &[T],
    key_of: impl Fn(T) -> &'static str,
    key: &str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&t| key_of(t) == key)
        .ok_or_else(|| {
            let valid: Vec<&str> = all.iter().map(|&t| key_of(t)).collect();
            let mut msg = format!("unknown {what} {key:?} (valid: {})", valid.join(", "));
            if let Some(near) = nearest(key, &valid) {
                msg.push_str(&format!("; did you mean {near:?}?"));
            }
            msg
        })
}

/// Levenshtein edit distance between two keys.
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate nearest to `key` by edit distance, if any is close
/// enough to plausibly be a typo (distance ≤ max(2, len/3)). Ties go
/// to the earliest candidate so the hint is deterministic.
pub fn nearest<'a>(key: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let budget = 2.max(key.chars().count() / 3);
    candidates
        .iter()
        .map(|&c| (edit_distance(key, c), c))
        .min_by_key(|&(d, _)| d)
        .filter(|&(d, _)| d <= budget)
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Color {
        Red,
        Blue,
    }

    impl Color {
        fn key(self) -> &'static str {
            match self {
                Color::Red => "red",
                Color::Blue => "blue",
            }
        }
    }

    #[test]
    fn finds_by_key_and_lists_valid_on_miss() {
        let all = [Color::Red, Color::Blue];
        assert_eq!(lookup("color", &all, Color::key, "blue"), Ok(Color::Blue));
        let err = lookup("color", &all, Color::key, "green").unwrap_err();
        assert_eq!(err, "unknown color \"green\" (valid: red, blue)");
    }

    #[test]
    fn near_misses_get_a_did_you_mean_hint() {
        let all = [Color::Red, Color::Blue];
        let err = lookup("color", &all, Color::key, "blu").unwrap_err();
        assert_eq!(
            err,
            "unknown color \"blu\" (valid: red, blue); did you mean \"blue\"?"
        );
        // "green" is 3 edits from "red" — too far for a hint (budget 2).
        assert!(!lookup("color", &all, Color::key, "green")
            .unwrap_err()
            .contains("did you mean"));
    }

    #[test]
    fn edit_distance_matches_hand_computation() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("green", "red"), 3);
        assert_eq!(edit_distance("p2c", "power-of-two"), 11);
    }

    #[test]
    fn nearest_is_deterministic_and_budgeted() {
        assert_eq!(nearest("blu", &["red", "blue"]), Some("blue"));
        assert_eq!(nearest("zzzzz", &["red", "blue"]), None);
        // Ties resolve to the earliest candidate.
        assert_eq!(nearest("ac", &["ab", "ac2", "cc"]), Some("ab"));
        // Longer keys earn a proportionally larger budget.
        assert_eq!(
            nearest("expect.p99_max", &["expect.p99_ms_max"]),
            Some("expect.p99_ms_max")
        );
    }
}
