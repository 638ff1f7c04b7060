//! A tolerant, zero-copy HTML tokenizer.
//!
//! Real-world pages the paper crawls (ministries, UN agencies, 20+ languages)
//! are full of unclosed tags, stray `<`, uppercase tag names and unquoted
//! attributes. The tokenizer therefore never fails: any input produces a token
//! stream. It handles comments, doctype, CDATA-ish sections and the *raw text*
//! elements `script` and `style` whose content must not be scanned for tags.
//!
//! Tokens are **copy-on-decode** (PR 3): every payload is a [`Cow`] that
//! borrows the input buffer unless entity decoding or ASCII case folding
//! actually changes the bytes. On generated markup (lowercase tags, few
//! entities) the whole token stream is allocation-free apart from the
//! output vector itself. The DOM builder bypasses even that: it drives the
//! crate-internal streaming `Tokenizer`, whose start-tag attributes land
//! in one reused buffer instead of a fresh `Vec` per tag.
//!
//! Each byte is examined once. Every run (a text run, a tag or attribute
//! name, a quoted or unquoted value, whitespace) is one scan over a local
//! byte slice that looks each byte up in one 256-entry class table, and
//! the tokenizer's position is written once, at the scan's end. The scan
//! also notes whether the run held a `&` or an ASCII uppercase byte, so
//! entity decoding and the lowercase fold run only on runs that hold one.
//! Text runs and quoted values, the long runs, first pass over whole
//! 8-byte words that hold neither their end byte nor a `&`. Raw text
//! (`script`, `style`) is searched for its close tag from `<` to `<`.

use crate::escape::unescape;
use std::borrow::Cow;

/// A single attribute on a start tag. Values are entity-decoded; both
/// fields borrow the input unless decoding/case folding forced a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr<'a> {
    pub name: Cow<'a, str>,
    pub value: Cow<'a, str>,
}

/// One lexical token of an HTML document, borrowing the input where it can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="v">`; `self_closing` is true for `<name/>`.
    Start {
        name: Cow<'a, str>,
        attrs: Vec<Attr<'a>>,
        self_closing: bool,
    },
    /// `</name>`
    End { name: Cow<'a, str> },
    /// Entity-decoded character data.
    Text(Cow<'a, str>),
    /// `<!-- ... -->` (contents, undecoded — always borrowed).
    Comment(Cow<'a, str>),
    /// `<!DOCTYPE html>` and friends (contents after `<!`).
    Doctype(Cow<'a, str>),
}

/// Tokenizes an HTML document. Never fails; garbage in, best-effort tokens
/// out. This is the convenience API that materialises a `Vec<Token>`; the
/// DOM builder consumes the streaming `Tokenizer` directly and never
/// allocates per-tag attribute vectors.
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    let mut tk = Tokenizer::new(input);
    let mut out = Vec::new();
    while let Some(ev) = tk.next_event() {
        out.push(match ev {
            Event::Start { name, self_closing } => {
                Token::Start { name, attrs: tk.attrs.drain(..).collect(), self_closing }
            }
            Event::End { name } => Token::End { name },
            Event::Text(t) => Token::Text(t),
            Event::Comment(c) => Token::Comment(Cow::Borrowed(c)),
            Event::Doctype(d) => Token::Doctype(Cow::Borrowed(d)),
        });
    }
    out
}

/// One streamed lexical event. Start-tag attributes are *not* carried here:
/// they sit in [`Tokenizer::attrs`] (one reused buffer) until the next
/// start tag overwrites them.
pub(crate) enum Event<'a> {
    Start { name: Cow<'a, str>, self_closing: bool },
    End { name: Cow<'a, str> },
    Text(Cow<'a, str>),
    Comment(&'a str),
    Doctype(&'a str),
}

/// The raw-text element opened by the last start tag, whose content must be
/// skipped without interpreting `<`.
#[derive(Clone, Copy)]
enum RawText {
    Script,
    Style,
}

impl RawText {
    fn close_tag(self) -> &'static [u8] {
        match self {
            RawText::Script => b"</script",
            RawText::Style => b"</style",
        }
    }
}

// Byte classes. Every scan stops at the first byte whose class meets its
// stop set and ORs together the classes of the bytes it passed, so one walk
// both finds the end of a run and tells whether the run needs `unescape`
// (it passed an `AMP`) or the lowercase fold (it passed an `UPPER`).

/// ASCII whitespace, as [`u8::is_ascii_whitespace`].
const WS: u16 = 1;
/// Ends a tag name: anything but an ASCII alphanumeric, `-`, `_` or `:`.
const NOT_NAME: u16 = 1 << 1;
const UPPER: u16 = 1 << 2;
const AMP: u16 = 1 << 3;
const LT: u16 = 1 << 4;
const GT: u16 = 1 << 5;
/// `=` or `/`: with `>` and whitespace, the end of an attribute name.
const EQ_SLASH: u16 = 1 << 6;
const DQUOTE: u16 = 1 << 7;
const SQUOTE: u16 = 1 << 8;

const CLASS: [u16; 256] = {
    let mut table = [0; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        let mut class = match b {
            b'&' => AMP,
            b'<' => LT,
            b'>' => GT,
            b'=' | b'/' => EQ_SLASH,
            b'"' => DQUOTE,
            b'\'' => SQUOTE,
            _ => 0,
        };
        if b.is_ascii_whitespace() {
            class |= WS;
        }
        if !(b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':')) {
            class |= NOT_NAME;
        }
        if b.is_ascii_uppercase() {
            class |= UPPER;
        }
        table[i] = class;
        i += 1;
    }
    table
};

/// The first index at or after `from` whose byte's class meets `stop` (or
/// `bytes.len()`), and the union of the classes of the bytes before it.
#[inline(always)]
fn scan(bytes: &[u8], from: usize, stop: u16) -> (usize, u16) {
    let mut seen = 0;
    for (i, &b) in bytes[from..].iter().enumerate() {
        let class = CLASS[usize::from(b)];
        if class & stop != 0 {
            return (from + i, seen);
        }
        seen |= class;
    }
    (bytes.len(), seen)
}

/// The first index at or after `from` where `bytes` has no whole 8-byte
/// word left, or one holding `stop` or a `&`. A text run or quoted value
/// skips its plain words this way, then scans the rest byte by byte from
/// there: what it skipped held no `&`, which is the only flag it reads.
#[inline(always)]
fn skip_plain_words(bytes: &[u8], from: usize, stop: u8) -> usize {
    const fn splat(b: u8) -> u64 {
        u64::from_ne_bytes([b; 8])
    }
    // Nonzero exactly when some byte of the word equals `b`.
    let holds = |word: u64, b: u8| {
        let x = word ^ splat(b);
        x.wrapping_sub(splat(1)) & !x & splat(0x80)
    };
    let mut i = from;
    while let Some(Ok(word)) = bytes.get(i..i + 8).map(<[u8; 8]>::try_from) {
        let word = u64::from_ne_bytes(word);
        if holds(word, stop) | holds(word, b'&') != 0 {
            break;
        }
        i += 8;
    }
    i
}

/// The first index at or after `from` that is not ASCII whitespace.
#[inline(always)]
fn skip_ws(bytes: &[u8], from: usize) -> usize {
    let off = bytes[from..].iter().position(|&b| CLASS[usize::from(b)] & WS == 0);
    off.map_or(bytes.len(), |off| from + off)
}

/// A name, ASCII-lowercased when its scan passed an uppercase byte and
/// borrowed otherwise.
fn fold(s: &str, seen: u16) -> Cow<'_, str> {
    if seen & UPPER != 0 {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// A text run or attribute value, entity-decoded when its scan passed a
/// `&`. [`unescape`] itself borrows when no reference resolves, so the
/// result is the same `Cow` as calling it unconditionally.
fn decode(s: &str, seen: u16) -> Cow<'_, str> {
    if seen & AMP != 0 {
        unescape(s)
    } else {
        Cow::Borrowed(s)
    }
}

/// Streaming tokenizer: call [`Tokenizer::next_event`] until `None`.
pub(crate) struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Attributes of the most recent `Event::Start`, in document order.
    /// Cleared (capacity kept) at every start tag.
    pub(crate) attrs: Vec<Attr<'a>>,
    /// Set when the last start tag opened `<script>`/`<style>`: the next
    /// event must skip raw text to the matching close tag.
    raw_text: Option<RawText>,
}

impl<'a> Tokenizer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Tokenizer { input, bytes: input.as_bytes(), pos: 0, attrs: Vec::new(), raw_text: None }
    }

    pub(crate) fn next_event(&mut self) -> Option<Event<'a>> {
        if let Some(raw) = self.raw_text.take() {
            if let Some(ev) = self.skip_raw_text(raw) {
                return Some(ev);
            }
        }
        loop {
            if *self.bytes.get(self.pos)? != b'<' {
                return Some(self.lex_text());
            }
            match self.bytes.get(self.pos + 1) {
                Some(b'!') => return Some(self.lex_markup_decl()),
                Some(b'/') => {
                    // An empty end-tag name (`</>`) yields nothing; keep
                    // scanning.
                    if let Some(ev) = self.lex_end_tag() {
                        return Some(ev);
                    }
                }
                Some(c) if c.is_ascii_alphabetic() => return Some(self.lex_start_tag()),
                _ => {
                    // A stray '<': emit as text and move on.
                    let s = &self.input[self.pos..self.pos + 1];
                    self.pos += 1;
                    return Some(Event::Text(Cow::Borrowed(s)));
                }
            }
        }
    }

    fn lex_text(&mut self) -> Event<'a> {
        let start = self.pos;
        let plain = skip_plain_words(self.bytes, start, b'<');
        let (end, seen) = scan(self.bytes, plain, LT);
        self.pos = end;
        Event::Text(decode(&self.input[start..end], seen))
    }

    fn lex_markup_decl(&mut self) -> Event<'a> {
        // self.pos at '<', next is '!'.
        if self.input[self.pos..].starts_with("<!--") {
            let body_start = self.pos + 4;
            return match self.input[body_start..].find("-->") {
                Some(off) => {
                    self.pos = body_start + off + 3;
                    Event::Comment(&self.input[body_start..body_start + off])
                }
                None => {
                    self.pos = self.bytes.len();
                    Event::Comment(&self.input[body_start..])
                }
            };
        }
        // <!DOCTYPE ...> or <![CDATA[...]]> — consume to the next '>'.
        let body_start = self.pos + 2;
        match self.input[body_start..].find('>') {
            Some(off) => {
                self.pos = body_start + off + 1;
                Event::Doctype(&self.input[body_start..body_start + off])
            }
            None => {
                self.pos = self.bytes.len();
                Event::Doctype(&self.input[body_start..])
            }
        }
    }

    fn lex_end_tag(&mut self) -> Option<Event<'a>> {
        // self.pos at '<', next is '/'.
        let (name, end) = self.lex_name(self.pos + 2);
        // Skip anything up to and including the next '>'.
        let gt = self.bytes[end..].iter().position(|&b| b == b'>');
        self.pos = gt.map_or(self.bytes.len(), |off| end + off + 1);
        if name.is_empty() {
            None
        } else {
            Some(Event::End { name })
        }
    }

    fn lex_start_tag(&mut self) -> Event<'a> {
        // self.pos at '<', next is an ASCII letter.
        let bytes = self.bytes;
        let (name, mut pos) = self.lex_name(self.pos + 1);
        self.attrs.clear();
        let mut self_closing = false;
        loop {
            pos = skip_ws(bytes, pos);
            match bytes.get(pos) {
                None => break,
                Some(b'>') => {
                    pos += 1;
                    break;
                }
                Some(b'/') => {
                    pos += 1;
                    if bytes.get(pos) == Some(&b'>') {
                        pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                // An attribute name cannot start with '=': skip the junk
                // byte to guarantee progress.
                Some(b'=') => pos += 1,
                Some(_) => {
                    let (attr, end) = self.lex_attr(pos);
                    self.attrs.push(attr);
                    pos = end;
                }
            }
        }
        self.pos = pos;
        // Raw-text elements swallow everything until their close tag.
        if !self_closing {
            match name.as_ref() {
                "script" => self.raw_text = Some(RawText::Script),
                "style" => self.raw_text = Some(RawText::Style),
                _ => {}
            }
        }
        Event::Start { name, self_closing }
    }

    /// After `<script ...>`: skip (and discard) content until `</script`,
    /// then emit the close tag through the normal end-tag path. Unlike the
    /// seed (which lowercased the entire remaining input to search), this
    /// scans case-insensitively in place.
    fn skip_raw_text(&mut self, raw: RawText) -> Option<Event<'a>> {
        match find_close_tag(&self.bytes[self.pos..], raw.close_tag()) {
            Some(off) => {
                self.pos += off;
                self.lex_end_tag()
            }
            None => {
                self.pos = self.bytes.len();
                None
            }
        }
    }

    /// The tag name starting at `from`, ASCII-lowercased (borrowed when it
    /// already is), and the index just past it.
    fn lex_name(&self, from: usize) -> (Cow<'a, str>, usize) {
        let (end, seen) = scan(self.bytes, from, NOT_NAME);
        (fold(&self.input[from..end], seen), end)
    }

    /// The attribute whose name starts at `start` (a byte that is not
    /// whitespace, `=`, `>` or `/`), and the index just past it.
    fn lex_attr(&self, start: usize) -> (Attr<'a>, usize) {
        let bytes = self.bytes;
        let (name_end, seen) = scan(bytes, start, EQ_SLASH | GT | WS);
        let name = fold(&self.input[start..name_end], seen);
        let pos = skip_ws(bytes, name_end);
        if bytes.get(pos) != Some(&b'=') {
            return (Attr { name, value: Cow::Borrowed("") }, pos);
        }
        let pos = skip_ws(bytes, pos + 1);
        let (value_start, plain, stop) = match bytes.get(pos) {
            Some(b'"') => (pos + 1, skip_plain_words(bytes, pos + 1, b'"'), DQUOTE),
            Some(b'\'') => (pos + 1, skip_plain_words(bytes, pos + 1, b'\''), SQUOTE),
            _ => (pos, pos, GT | WS),
        };
        let (value_end, seen) = scan(bytes, plain, stop);
        let value = decode(&self.input[value_start..value_end], seen);
        // A quoted value consumes its closing quote, when there is one.
        let end = if stop == GT | WS { value_end } else { (value_end + 1).min(bytes.len()) };
        (Attr { name, value }, end)
    }
}

/// First case-insensitive occurrence of the ASCII close tag `needle` in
/// `hay`, without copying `hay` (the seed lowercased the whole remaining
/// input per `<script>` tag). `needle` opens with `<`, which has no case
/// variant, so the search jumps from `<` to `<` and compares only there.
/// Case folding is ASCII-only on both sides, exactly like
/// `to_ascii_lowercase`, so offsets agree with the seed byte for byte.
fn find_close_tag(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = hay[from..].iter().position(|&b| b == b'<') {
        let at = from + off;
        // Every later `<` leaves even fewer bytes than this one.
        if hay.get(at..at + needle.len())?.eq_ignore_ascii_case(needle) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start<'a>(name: &'a str, attrs: &[(&'a str, &'a str)]) -> Token<'a> {
        Token::Start {
            name: name.into(),
            attrs: attrs.iter().map(|(n, v)| Attr { name: (*n).into(), value: (*v).into() }).collect(),
            self_closing: false,
        }
    }

    #[test]
    fn simple_document() {
        let toks = tokenize("<html><body>hi</body></html>");
        assert_eq!(
            toks,
            vec![
                start("html", &[]),
                start("body", &[]),
                Token::Text("hi".into()),
                Token::End { name: "body".into() },
                Token::End { name: "html".into() },
            ]
        );
    }

    #[test]
    fn attributes_quoted_and_unquoted() {
        let toks = tokenize(r#"<a href="/x.csv" class=dataset data-k='v'>d</a>"#);
        assert_eq!(
            toks[0],
            start("a", &[("href", "/x.csv"), ("class", "dataset"), ("data-k", "v")])
        );
    }

    #[test]
    fn boolean_attribute() {
        let toks = tokenize("<input disabled>");
        assert_eq!(toks[0], start("input", &[("disabled", "")]));
    }

    #[test]
    fn self_closing() {
        let toks = tokenize("<br/><img src='a.png'/>");
        assert!(matches!(&toks[0], Token::Start { name, self_closing: true, .. } if name == "br"));
        assert!(matches!(&toks[1], Token::Start { name, self_closing: true, .. } if name == "img"));
    }

    #[test]
    fn comment_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- note --><p>x</p>");
        assert_eq!(toks[0], Token::Doctype("DOCTYPE html".into()));
        assert_eq!(toks[1], Token::Comment(" note ".into()));
    }

    #[test]
    fn script_content_is_raw() {
        let toks = tokenize("<script>if (a < b) { x('<a href=\"no\">'); }</script><p>y</p>");
        // No <a> token must appear from inside the script.
        assert!(!toks.iter().any(|t| matches!(t, Token::Start { name, .. } if name == "a")));
        assert!(toks.iter().any(|t| matches!(t, Token::Start { name, .. } if name == "p")));
    }

    #[test]
    fn uppercase_close_of_raw_text_found() {
        let toks = tokenize("<script>x()</SCRIPT><p>y</p>");
        assert!(toks.iter().any(|t| matches!(t, Token::End { name } if name == "script")));
        assert!(toks.iter().any(|t| matches!(t, Token::Start { name, .. } if name == "p")));
    }

    #[test]
    fn uppercase_normalized() {
        let toks = tokenize("<DIV CLASS='Main'>t</DIV>");
        assert_eq!(toks[0], start("div", &[("class", "Main")]));
        assert_eq!(toks[2], Token::End { name: "div".into() });
    }

    #[test]
    fn stray_angle_bracket() {
        let toks = tokenize("a < b <p>c</p>");
        assert_eq!(toks[0], Token::Text("a ".into()));
        assert_eq!(toks[1], Token::Text("<".into()));
        assert!(toks.iter().any(|t| matches!(t, Token::Start { name, .. } if name == "p")));
    }

    #[test]
    fn entity_in_text_and_attr() {
        let toks = tokenize(r#"<a href="/q?a=1&amp;b=2">R&amp;D</a>"#);
        assert_eq!(toks[0], start("a", &[("href", "/q?a=1&b=2")]));
        assert_eq!(toks[1], Token::Text("R&D".into()));
    }

    #[test]
    fn truncated_input_never_panics() {
        for s in ["<", "<a", "<a href", "<a href=", "<a href='x", "</", "<!--", "<!DOC"] {
            let _ = tokenize(s);
        }
    }

    #[test]
    fn unterminated_comment() {
        let toks = tokenize("<!-- never closed");
        assert_eq!(toks, vec![Token::Comment(" never closed".into())]);
    }

    /// The zero-copy contract: on lowercase, entity-free markup every token
    /// payload borrows the input buffer.
    #[test]
    fn clean_markup_borrows_everything() {
        let toks = tokenize(r#"<div id="m"><a href="/x.csv">data</a> more</div>"#);
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        for t in &toks {
            match t {
                Token::Start { name, attrs, .. } => {
                    assert!(borrowed(name));
                    for a in attrs {
                        assert!(borrowed(&a.name) && borrowed(&a.value));
                    }
                }
                Token::End { name } => assert!(borrowed(name)),
                Token::Text(s) => assert!(borrowed(s)),
                Token::Comment(s) | Token::Doctype(s) => assert!(borrowed(s)),
            }
        }
    }
}
