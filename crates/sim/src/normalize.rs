//! Normalisers that reconcile per-source conventions before comparison.
//!
//! §V of the paper: "The sources use different conventions for, e.g.,
//! naming directors, so these never match exactly." Normalisation is what
//! lets simple rules make absolute decisions despite convention mismatch.

/// Normalise one token: lowercase and convert roman numerals (up to 20,
/// the practical range for sequels) to arabic digits.
pub fn normalize_token(token: &str) -> String {
    let lower = token.to_lowercase();
    if let Some(arabic) = roman_to_arabic(&lower) {
        return arabic.to_string();
    }
    lower
}

/// Normalise a movie title: lowercase, strip punctuation, convert roman
/// numerals, collapse whitespace, and drop format qualifiers like `(tv)`.
pub fn normalize_title(title: &str) -> String {
    let mut out = String::with_capacity(title.len());
    normalize_title_into(title, &mut out);
    out
}

/// [`normalize_title`] into a caller-owned buffer (cleared first), with
/// no allocation per token: each token is lowercased in place at the end
/// of `out` and dropped again if it is a format qualifier. Gives the same
/// string as [`normalize_title`] for every input.
pub fn normalize_title_into(title: &str, out: &mut String) {
    out.clear();
    let mut rest = title;
    while let Some(begin) = rest.find(char::is_alphanumeric) {
        let end = rest[begin..]
            .find(|c: char| !c.is_alphanumeric())
            .map_or(rest.len(), |e| begin + e);
        let mark = out.len();
        if !out.is_empty() {
            out.push(' ');
        }
        let start = out.len();
        // `tokenize` lowercases char by char, then `normalize_token`
        // lowercases the token as a string. The second pass changes
        // nothing unless some char is not its own lowercase, which no
        // ASCII char is.
        let token = &rest[begin..end];
        if token.is_ascii() {
            out.extend(token.bytes().map(|b| char::from(b.to_ascii_lowercase())));
        } else {
            out.extend(token.chars().flat_map(char::to_lowercase));
        }
        if !token.is_ascii() && !out[start..].chars().all(is_lowercase_fixed_point) {
            let lower = out[start..].to_lowercase();
            out.truncate(start);
            out.push_str(&lower);
        }
        if let Some(arabic) = roman_to_arabic(&out[start..]) {
            out.truncate(start);
            out.push_str(&arabic.to_string());
        }
        if matches!(&out[start..], "tv" | "videogame" | "video") {
            // Format qualifiers: "Jaws (TV)" names the same franchise entry
            // family; the year rule distinguishes them when needed.
            out.truncate(mark);
        }
        rest = &rest[end..];
    }
}

/// Whether `c` lowercases to itself alone.
fn is_lowercase_fixed_point(c: char) -> bool {
    let mut lower = c.to_lowercase();
    lower.next() == Some(c) && lower.next().is_none()
}

/// Normalise a person name into lowercase `given family` order.
///
/// Handles the `"Family, Given"` convention (IMDB style) by swapping
/// around the first comma, then lowercases and collapses whitespace.
pub fn normalize_person_name(name: &str) -> String {
    let reordered: String = match name.split_once(',') {
        Some((family, given)) => format!("{} {}", given.trim(), family.trim()),
        None => name.trim().to_string(),
    };
    let tokens = imprecise_sim_tokenize(&reordered);
    tokens
        .iter()
        .map(|t| t.to_lowercase())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse a roman numeral in `i..=xx`, the range sequels occupy.
fn roman_to_arabic(s: &str) -> Option<u32> {
    if s.len() > 5 || !s.bytes().all(|b| matches!(b, b'i' | b'v' | b'x')) {
        return None;
    }
    const TABLE: [(&str, u32); 20] = [
        ("i", 1),
        ("ii", 2),
        ("iii", 3),
        ("iv", 4),
        ("v", 5),
        ("vi", 6),
        ("vii", 7),
        ("viii", 8),
        ("ix", 9),
        ("x", 10),
        ("xi", 11),
        ("xii", 12),
        ("xiii", 13),
        ("xiv", 14),
        ("xv", 15),
        ("xvi", 16),
        ("xvii", 17),
        ("xviii", 18),
        ("xix", 19),
        ("xx", 20),
    ];
    TABLE.iter().find(|(r, _)| *r == s).map(|&(_, v)| v)
}

/// Local tokenizer (kept separate from [`crate::token::tokenize`] to avoid
/// a circular dependency of normalisation defaults; same semantics).
fn imprecise_sim_tokenize(s: &str) -> Vec<String> {
    crate::token::tokenize(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_normalisation() {
        assert_eq!(normalize_token("II"), "2");
        assert_eq!(normalize_token("iv"), "4");
        assert_eq!(normalize_token("Jaws"), "jaws");
        assert_eq!(normalize_token("2"), "2");
        // "I" is a roman numeral; sequels rarely use it but the mapping is
        // consistent.
        assert_eq!(normalize_token("I"), "1");
    }

    #[test]
    fn title_normalisation() {
        assert_eq!(
            normalize_title("Mission: Impossible II"),
            "mission impossible 2"
        );
        assert_eq!(normalize_title("Die Hard 2"), "die hard 2");
        assert_eq!(normalize_title("Jaws (TV)"), "jaws");
        assert_eq!(normalize_title("  JAWS   2  "), "jaws 2");
        assert_eq!(normalize_title(""), "");
    }

    #[test]
    fn person_name_normalisation() {
        assert_eq!(normalize_person_name("McTiernan, John"), "john mctiernan");
        assert_eq!(normalize_person_name("John McTiernan"), "john mctiernan");
        assert_eq!(normalize_person_name("Woo, John"), "john woo");
        assert_eq!(
            normalize_person_name("  Spielberg ,  Steven "),
            "steven spielberg"
        );
        assert_eq!(normalize_person_name(""), "");
    }

    #[test]
    fn roman_numerals_bounded() {
        assert_eq!(roman_to_arabic("xx"), Some(20));
        assert_eq!(roman_to_arabic("xxi"), None);
        assert_eq!(roman_to_arabic("mcmxcv"), None); // out of sequel range
        assert_eq!(roman_to_arabic("jaws"), None);
    }

    #[test]
    fn normalised_titles_equal_for_convention_variants() {
        let variants = [
            "Mission: Impossible II",
            "mission impossible II",
            "Mission Impossible 2",
            "MISSION IMPOSSIBLE: 2",
        ];
        let first = normalize_title(variants[0]);
        for v in &variants[1..] {
            assert_eq!(normalize_title(v), first, "variant {v}");
        }
    }
}
