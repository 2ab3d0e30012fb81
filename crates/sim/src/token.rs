//! Token- and n-gram-based similarity.

use std::collections::BTreeSet;

/// Split a string into lowercase alphanumeric tokens.
pub fn tokenize(s: &str) -> Vec<String> {
    let mut buf = String::new();
    let mut spans = Vec::new();
    tokenize_into(s, &mut buf, &mut spans);
    spans.into_iter().map(|r| buf[r].to_string()).collect()
}

/// [`tokenize`] without an allocation per token: the lowercased tokens
/// are written back to back into `buf` (cleared first) and their byte
/// ranges in `buf`, in order, into `spans` (cleared first). Callers that
/// reuse both buffers tokenize without touching the heap.
pub fn tokenize_into(s: &str, buf: &mut String, spans: &mut Vec<std::ops::Range<usize>>) {
    buf.clear();
    spans.clear();
    let mut start = 0;
    if s.is_ascii() {
        // ASCII: alphanumeric and lowercase are the byte-level tests.
        for b in s.bytes() {
            if b.is_ascii_alphanumeric() {
                buf.push(char::from(b.to_ascii_lowercase()));
            } else if buf.len() > start {
                spans.push(start..buf.len());
                start = buf.len();
            }
        }
        if buf.len() > start {
            spans.push(start..buf.len());
        }
        return;
    }
    for c in s.chars() {
        if c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if buf.len() > start {
            spans.push(start..buf.len());
            start = buf.len();
        }
    }
    if buf.len() > start {
        spans.push(start..buf.len());
    }
}

/// The token *set* of a string: [`tokenize`] deduplicated and ordered.
pub fn token_set(s: &str) -> BTreeSet<String> {
    tokenize(s).into_iter().collect()
}

/// Jaccard similarity of two precomputed token sets, in `[0, 1]`. This is
/// the set arithmetic behind [`jaccard_tokens`]; callers that cache
/// [`token_set`] per element get the same bits without re-tokenising.
pub fn jaccard_token_sets(sa: &BTreeSet<String>, sb: &BTreeSet<String>) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(sb).count();
    let union = sa.union(sb).count();
    intersection as f64 / union as f64
}

/// Jaccard similarity of the token *sets* of two strings, in `[0, 1]`.
/// Two strings with no tokens at all are fully similar.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    jaccard_token_sets(&token_set(a), &token_set(b))
}

/// Dice coefficient over character trigrams of the lowercased input, in
/// `[0, 1]`. Strings shorter than three characters compare by equality of
/// their lowercase forms.
pub fn dice_trigram(a: &str, b: &str) -> f64 {
    let la = a.to_lowercase();
    let lb = b.to_lowercase();
    dice_trigram_sets(&la, &trigram_set(&la), &lb, &trigram_set(&lb))
}

/// Dice coefficient from precomputed lowercase forms and trigram sets —
/// the arithmetic behind [`dice_trigram`], for callers that cache
/// [`trigram_set`] per element.
pub fn dice_trigram_sets(
    la: &str,
    ta: &BTreeSet<Vec<char>>,
    lb: &str,
    tb: &BTreeSet<Vec<char>>,
) -> f64 {
    if ta.is_empty() || tb.is_empty() {
        return if la == lb { 1.0 } else { 0.0 };
    }
    let intersection = ta.intersection(tb).count();
    2.0 * intersection as f64 / (ta.len() + tb.len()) as f64
}

/// Character trigram set of a string (empty for strings shorter than
/// three characters — callers fall back to equality there).
pub fn trigram_set(s: &str) -> BTreeSet<Vec<char>> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 3 {
        return BTreeSet::new();
    }
    chars.windows(3).map(|w| w.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokenize("Die Hard: With a Vengeance"),
            vec!["die", "hard", "with", "a", "vengeance"]
        );
        assert_eq!(
            tokenize("Mission: Impossible II"),
            vec!["mission", "impossible", "ii"]
        );
        assert_eq!(tokenize("  --  "), Vec::<String>::new());
        assert_eq!(tokenize("R2-D2"), vec!["r2", "d2"]);
    }

    #[test]
    fn jaccard_basic() {
        assert_eq!(jaccard_tokens("jaws", "jaws"), 1.0);
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("jaws", ""), 0.0);
        // {mission, impossible} vs {mission, impossible, ii} → 2/3.
        let s = jaccard_tokens("Mission Impossible", "Mission: Impossible II");
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ignores_order_and_punctuation() {
        assert_eq!(jaccard_tokens("Hard Die", "Die, Hard!"), 1.0);
    }

    #[test]
    fn dice_trigram_behaviour() {
        assert_eq!(dice_trigram("jaws", "jaws"), 1.0);
        assert!(dice_trigram("jaws", "laws") > 0.0);
        assert_eq!(dice_trigram("ab", "ab"), 1.0); // short-string fallback
        assert_eq!(dice_trigram("ab", "cd"), 0.0);
        let near = dice_trigram("die hard", "die harder");
        let far = dice_trigram("die hard", "jaws 2");
        assert!(near > far);
    }

    #[test]
    fn measures_are_symmetric() {
        for (a, b) in [("jaws 2", "jaws"), ("die hard", "live free die hard")] {
            assert_eq!(jaccard_tokens(a, b), jaccard_tokens(b, a));
            assert_eq!(dice_trigram(a, b), dice_trigram(b, a));
        }
    }
}
