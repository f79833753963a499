//! A minimal Rust source scanner.
//!
//! Produces, for each file, a *blanked* copy of the source in which
//! comments, string literals and char literals are replaced by spaces
//! (newlines preserved), so the passes can do plain substring matching
//! without tripping over `"Mutex"` in a doc string. Comment
//! text is not discarded entirely: `nucache-audit: allow(...)`
//! suppression directives are parsed out of it.

/// A suppression directive parsed from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-indexed line the directive appears on.
    pub line: usize,
    /// Lint name inside `allow(...)` / `allow-file(...)`.
    pub lint: String,
    /// Whether the directive covers the whole file (`allow-file`).
    pub file_wide: bool,
}

/// The kind of a hot-path contract annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// `// audit:hot-path` — the next `fn` is a hot-path root: no
    /// allocation may be reachable from it without a justification.
    HotPath,
    /// `// audit:allow-alloc(reason)` — on a `fn`, the function is an
    /// allocation boundary (e.g. the epoch selection pass); on a site,
    /// the single allocation on this or the next line is permitted.
    AllowAlloc,
}

/// A machine-checkable contract annotation parsed from a comment.
///
/// Unlike [`Suppression`]s these are not escape hatches: the effects
/// pass *requires* them on hot-path roots and allocation sites, and
/// cross-checks every `allow-alloc` against the justification file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// 1-indexed line the annotation appears on.
    pub line: usize,
    /// What the annotation declares.
    pub kind: AnnotationKind,
    /// The parenthesized reason (`allow-alloc` only; empty for
    /// `hot-path`).
    pub reason: String,
}

/// The scanner's output for one file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Source with comments and string/char literals blanked to spaces.
    /// Line structure is identical to the input.
    pub blanked: String,
    /// Suppression directives found in comments.
    pub suppressions: Vec<Suppression>,
    /// Hot-path contract annotations found in comments.
    pub annotations: Vec<Annotation>,
    /// 1-indexed line of the first `#[cfg(test)]` attribute, if any.
    /// Workspace convention keeps test modules at the end of the file, so
    /// everything from this line on is treated as test code.
    pub first_test_line: Option<usize>,
}

impl ScannedFile {
    /// Lines of the blanked source, 1-indexed via `enumerate() + 1`.
    pub fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.blanked.lines().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// Whether `line` is inside the trailing test region.
    pub fn is_test_code(&self, line: usize) -> bool {
        self.first_test_line.is_some_and(|t| line >= t)
    }

    /// Whether `lint` is suppressed at `line` (same line, the line above,
    /// or file-wide).
    pub fn is_suppressed(&self, lint: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.lint == lint && (s.file_wide || s.line == line || s.line + 1 == line))
    }

    /// The `allow-alloc` annotation covering a site at `line` (the same
    /// line or the line above), if any.
    pub fn allow_alloc_at(&self, line: usize) -> Option<&Annotation> {
        self.annotations.iter().find(|a| {
            a.kind == AnnotationKind::AllowAlloc && (a.line == line || a.line + 1 == line)
        })
    }

    /// Annotations of `kind` whose line falls in `[line - reach, line]`
    /// — used to attach fn-level annotations to a declaration that may
    /// have attributes between the comment and the `fn` keyword.
    pub fn annotation_above(
        &self,
        kind: AnnotationKind,
        line: usize,
        reach: usize,
    ) -> Option<&Annotation> {
        self.annotations.iter().find(|a| a.kind == kind && a.line <= line && a.line + reach >= line)
    }
}

/// Parses suppression directives out of one comment's text.
fn parse_directives(comment: &str, line: usize, out: &mut Vec<Suppression>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("nucache-audit:") {
        rest = &rest[pos + "nucache-audit:".len()..];
        let body = rest.trim_start();
        for (prefix, file_wide) in [("allow-file(", true), ("allow(", false)] {
            if let Some(inner) = body.strip_prefix(prefix) {
                if let Some(end) = inner.find(')') {
                    out.push(Suppression {
                        line,
                        lint: inner[..end].trim().to_string(),
                        file_wide,
                    });
                }
                break;
            }
        }
    }
}

/// Parses hot-path contract annotations out of one comment's text.
fn parse_annotations(comment: &str, line: usize, out: &mut Vec<Annotation>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("audit:") {
        rest = &rest[pos + "audit:".len()..];
        if rest.starts_with("hot-path") {
            out.push(Annotation { line, kind: AnnotationKind::HotPath, reason: String::new() });
        } else if let Some(inner) = rest.strip_prefix("allow-alloc(") {
            if let Some(end) = inner.find(')') {
                out.push(Annotation {
                    line,
                    kind: AnnotationKind::AllowAlloc,
                    reason: inner[..end].trim().to_string(),
                });
            }
        }
    }
}

/// Scans `source`, blanking comments and literals and collecting
/// suppression directives.
///
/// The lexer understands line and (nested) block comments, plain and raw
/// strings (`r"…"`, `r#"…"#`, byte variants), char literals, and
/// distinguishes lifetimes (`'a`) from char literals.
pub fn scan(source: &str) -> ScannedFile {
    let bytes: Vec<char> = source.chars().collect();
    let mut blanked = String::with_capacity(source.len());
    let mut suppressions = Vec::new();
    let mut annotations = Vec::new();
    let mut first_test_line = None;
    let mut line = 1usize;
    let mut i = 0usize;

    // Appends `c` to the blanked output, tracking line numbers.
    macro_rules! keep {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
            }
            blanked.push(c);
        }};
    }
    // Blanks `c`: newlines survive, everything else becomes a space.
    macro_rules! blank {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
                blanked.push('\n');
            } else {
                blanked.push(' ');
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            // Line comment: blank it, but harvest directives.
            let start = i;
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            parse_directives(&text, line, &mut suppressions);
            parse_annotations(&text, line, &mut annotations);
            for _ in start..i {
                blanked.push(' ');
            }
            continue;
        }
        if c == '/' && next == Some('*') {
            // Block comment, possibly nested.
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let text: String = bytes[start..i].iter().collect();
            parse_directives(&text, start_line, &mut suppressions);
            parse_annotations(&text, start_line, &mut annotations);
            for c in text.chars() {
                blank!(c);
            }
            continue;
        }
        if c == '"' {
            blank!(c);
            i += 1;
            while i < bytes.len() {
                if bytes[i] == '\\' && i + 1 < bytes.len() {
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == '"' {
                    blank!(bytes[i]);
                    i += 1;
                    break;
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings: r"…" / r#"…"# / br#"…"# — count the hashes.
        if (c == 'r' || c == 'b') && !prev_is_ident(&bytes, i) {
            if let Some((body_start, hashes)) = raw_string_start(&bytes, i) {
                for &p in &bytes[i..body_start] {
                    blank!(p);
                }
                i = body_start;
                // Find the closing `"###…` by char position — a byte-offset
                // search would derail on multibyte chars inside the body.
                let end = raw_string_end(&bytes, body_start, hashes);
                while i < end && i < bytes.len() {
                    blank!(bytes[i]);
                    i += 1;
                }
                continue;
            }
        }
        if c == '\'' {
            // Lifetime or char literal. A lifetime is `'ident` not
            // followed by a closing quote.
            let is_lifetime = next.is_some_and(|n| n.is_alphanumeric() || n == '_')
                && bytes.get(i + 2) != Some(&'\'');
            if is_lifetime {
                keep!(c);
                i += 1;
                continue;
            }
            blank!(c);
            i += 1;
            while i < bytes.len() {
                if bytes[i] == '\\' && i + 1 < bytes.len() {
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == '\'' {
                    blank!(bytes[i]);
                    i += 1;
                    break;
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        if first_test_line.is_none() && c == '#' && source_has_cfg_test(&bytes, i) {
            first_test_line = Some(line);
        }
        keep!(c);
        i += 1;
    }

    ScannedFile { blanked, suppressions, annotations, first_test_line }
}

/// Whether the char before `i` can extend an identifier (so `r` in `for`
/// is not a raw-string prefix).
fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// If a raw string starts at `i`, returns `(index after the opening
/// quote, hash count)`.
fn raw_string_start(bytes: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&'"')).then_some((j + 1, hashes))
}

/// Char index one past the closing `"##…` of a raw string whose body
/// starts at `body_start` with `hashes` hashes; the end of input if the
/// string is unterminated.
fn raw_string_end(bytes: &[char], body_start: usize, hashes: usize) -> usize {
    let mut i = body_start;
    while i < bytes.len() {
        if bytes[i] == '"'
            && bytes[i + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    bytes.len()
}

/// Whether `#[cfg(test)]` (whitespace-tolerant) starts at byte `i`.
fn source_has_cfg_test(bytes: &[char], i: usize) -> bool {
    let window: String = bytes[i..bytes.len().min(i + 24)].iter().collect();
    let squashed: String = window.chars().filter(|c| !c.is_whitespace()).collect();
    squashed.starts_with("#[cfg(test)]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scan("let x = \"HashMap\"; // HashMap in comment\nlet y = HashMap::new();\n");
        assert!(!s.blanked.lines().next().unwrap().contains("HashMap"));
        assert!(s.blanked.lines().nth(1).unwrap().contains("HashMap"));
    }

    #[test]
    fn line_structure_is_preserved() {
        let src = "a\n/* multi\nline */\nb\n";
        let s = scan(src);
        assert_eq!(s.blanked.lines().count(), src.lines().count());
        assert_eq!(s.blanked.lines().nth(3).unwrap(), "b");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scan("let x = r#\"Instant\"#; let t = Instant::now();\n");
        let line = s.blanked.lines().next().unwrap();
        assert_eq!(line.matches("Instant").count(), 1, "only the real token survives");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let q = HashMap;\n");
        assert!(s.blanked.contains("HashMap"), "scanning must not derail after lifetimes");
        assert!(!s.blanked.contains("'x'"));
    }

    #[test]
    fn suppressions_are_parsed() {
        let s = scan(
            "// nucache-audit: allow(counter-dataflow) -- read by the report\nfoo();\n\
             // nucache-audit: allow-file(doc-constant-drift)\n",
        );
        assert!(s.is_suppressed("counter-dataflow", 1));
        assert!(s.is_suppressed("counter-dataflow", 2), "next line is covered");
        assert!(!s.is_suppressed("counter-dataflow", 3));
        assert!(s.is_suppressed("doc-constant-drift", 999), "file-wide covers everything");
    }

    #[test]
    fn raw_strings_with_multibyte_chars_do_not_derail() {
        // The closer search must be char-indexed: a multibyte char inside
        // the raw-string body once pushed the scan past the real closer.
        let s = scan("let x = r#\"héllo — ünïcode\"#; let t = Instant::now();\n");
        assert_eq!(s.blanked.lines().next().unwrap().matches("Instant").count(), 1);
        // Multibyte *before* the raw string too.
        let s = scan("let é = 1; let x = r\"ß\"; let t = Instant::now();\n");
        assert_eq!(s.blanked.lines().next().unwrap().matches("Instant").count(), 1);
    }

    #[test]
    fn raw_string_hash_counting() {
        // A `"#` inside an `r##"…"##` body must not close the string.
        let s = scan("let x = r##\"inner \"# quote HashMap\"##; let m = HashMap::new();\n");
        assert_eq!(s.blanked.lines().next().unwrap().matches("HashMap").count(), 1);
        // Unterminated raw string swallows the rest of the input.
        let s = scan("let x = r#\"never closed\nHashMap\n");
        assert!(!s.blanked.contains("HashMap"));
        assert_eq!(s.blanked.lines().count(), 2);
    }

    #[test]
    fn byte_literals_are_blanked() {
        let s = scan("let c = b'x'; let s = b\"HashMap\"; let r = br#\"HashMap\"#; HashMap\n");
        assert_eq!(s.blanked.lines().next().unwrap().matches("HashMap").count(), 1);
        assert!(!s.blanked.contains("b'x'"));
    }

    #[test]
    fn nested_block_comments_deeply() {
        let src = "a /* 1 /* 2 /* 3 */ 2 */ still comment */ b\n/* unterminated /* */\nc\n";
        let s = scan(src);
        let first = s.blanked.lines().next().unwrap();
        assert!(first.contains('a') && first.contains('b'));
        assert!(!first.contains("still"));
        // The unterminated nested comment swallows the rest.
        assert!(!s.blanked.contains('c'));
        assert_eq!(s.blanked.lines().count(), src.lines().count());
    }

    #[test]
    fn lifetime_char_literal_disambiguation() {
        // 'a> (generic close), 'static, loop labels: lifetimes, kept.
        let s = scan("impl<'a> Foo<'a> { fn f(&'a self) -> &'static str { 'outer: loop {} } }\n");
        assert!(s.blanked.contains("'a>"));
        assert!(s.blanked.contains("'static"));
        assert!(s.blanked.contains("'outer"));
        // Escaped quote and backslash char literals terminate correctly.
        let s = scan(r"let q = '\''; let b = '\\'; let n = '\n'; HashMap");
        assert_eq!(s.blanked.matches("HashMap").count(), 1);
        assert!(!s.blanked.contains(r"'\''"));
    }

    #[test]
    fn test_region_detected() {
        let s = scan("fn lib() {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(s.first_test_line, Some(2));
        assert!(!s.is_test_code(1));
        assert!(s.is_test_code(3));
    }
}
