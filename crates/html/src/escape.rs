//! HTML entity escaping and unescaping.
//!
//! Only the entities that actually occur in crawled markup matter here: the
//! five XML-predefined entities plus decimal/hexadecimal numeric references.
//! Unknown entities are passed through verbatim, which is what browsers do for
//! unterminated ampersands and is the tolerant behaviour a crawler needs.
//!
//! [`unescape`] is copy-on-decode: it returns a borrow of the input unless a
//! reference actually resolves, so the entity-free common case (and the
//! "bare `&` in prose" case) costs zero allocations. This is the foundation
//! of the zero-copy tokenizer: text runs and attribute values flow through
//! here on every parsed page.

use std::borrow::Cow;

/// Escapes `&`, `<`, `>`, `"` and `'` for safe inclusion in HTML text or
/// double-quoted attribute values, appended to `out`: no intermediate
/// `String`, and the runs between special characters (usually the whole
/// input) are copied whole.
pub fn escape_into(s: &str, out: &mut String) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&#39;",
            _ => continue,
        };
        // The specials are ASCII, so `i` is always a char boundary.
        out.push_str(&s[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Resolves entity references in HTML text or attribute values.
///
/// Handles the named entities `amp`, `lt`, `gt`, `quot`, `apos`, `nbsp` and
/// numeric references (`&#123;`, `&#x1F4A9;`). Anything unrecognised is left
/// untouched, including a bare `&`.
///
/// Allocates only when at least one reference resolves; otherwise the input
/// is returned as [`Cow::Borrowed`].
pub(crate) fn unescape(s: &str) -> Cow<'_, str> {
    let bytes = s.as_bytes();
    // Owned output, created lazily at the first actual substitution;
    // `copied` marks how far the input has been flushed into it.
    let mut out: Option<String> = None;
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // '&' is ASCII, so scanning bytewise never lands inside a
            // multi-byte character; slices below stay on char boundaries.
            i += 1;
            continue;
        }
        // Find the terminating ';' within a reasonable window.
        let Some(end) = bytes[i + 1..].iter().take(32).position(|&b| b == b';').map(|p| i + 1 + p)
        else {
            i += 1;
            continue;
        };
        let name = &s[i + 1..end];
        let resolved = match name {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            "nbsp" => Some('\u{a0}'),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                u32::from_str_radix(&name[2..], 16).ok().and_then(char::from_u32)
            }
            _ if name.starts_with('#') => {
                name[1..].parse::<u32>().ok().and_then(char::from_u32)
            }
            _ => None,
        };
        match resolved {
            Some(c) => {
                let out = out.get_or_insert_with(|| String::with_capacity(s.len()));
                out.push_str(&s[copied..i]);
                out.push(c);
                i = end + 1;
                copied = i;
            }
            None => {
                i += 1;
            }
        }
    }
    match out {
        Some(mut o) => {
            o.push_str(&s[copied..]);
            Cow::Owned(o)
        }
        None => Cow::Borrowed(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        escape_into(s, &mut out);
        out
    }

    #[test]
    fn escape_basic() {
        assert_eq!(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
    }

    #[test]
    fn unescape_named() {
        assert_eq!(unescape("a&lt;b&gt;&amp;&quot;&apos;"), "a<b>&\"'");
        assert_eq!(unescape("x&nbsp;y"), "x\u{a0}y");
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;"), "AB");
        assert_eq!(unescape("&#x1F4A9;"), "\u{1F4A9}");
    }

    #[test]
    fn unescape_tolerates_bare_ampersand() {
        assert_eq!(unescape("fish & chips"), "fish & chips");
        assert_eq!(unescape("&unknown;"), "&unknown;");
        assert_eq!(unescape("trailing &"), "trailing &");
    }

    #[test]
    fn unescape_preserves_multibyte() {
        assert_eq!(unescape("é&amp;è"), "é&è");
        assert_eq!(unescape("日本&lt;語"), "日本<語");
    }

    #[test]
    fn roundtrip() {
        let s = "a <b> & \"c\" 'd' é 日本語";
        assert_eq!(unescape(&escape(s)), s);
    }

    #[test]
    fn unescape_rejects_invalid_codepoint() {
        // Surrogate range is not a valid char; left untouched.
        assert_eq!(unescape("&#xD800;"), "&#xD800;");
    }

    #[test]
    fn entity_free_input_borrows() {
        assert!(matches!(unescape("plain text"), Cow::Borrowed(_)));
        // A '&' that resolves nothing must stay borrowed too.
        assert!(matches!(unescape("fish & chips"), Cow::Borrowed(_)));
        assert!(matches!(unescape("&bogus;"), Cow::Borrowed(_)));
    }

    #[test]
    fn resolving_input_allocates_once() {
        assert!(matches!(unescape("a&amp;b"), Cow::Owned(_)));
    }
}
