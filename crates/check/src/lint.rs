//! Lightweight Rust-aware source lints for the graphsi tree.
//!
//! These are not a compiler plugin: they scan masked source text (string
//! literals, char literals and comments blanked out, `#[cfg(test)]`
//! items removed) with just enough structure-awareness — brace depth,
//! `let` bindings, statement boundaries — to enforce repository rules
//! that `clippy` cannot express:
//!
//! | rule | meaning |
//! |------|---------|
//! | `no-unwrap` | no `.unwrap()` / `.expect(` in non-test library code |
//! | `no-guard-across-fsync` | no lock guard live across `sync_data` / `sync_all` / `sync_appended` |
//! | `shard-lock-order` | shard-lock loops assert their footprint is sorted ascending |
//!
//! Findings carry `file:line` positions. Pre-existing sites are
//! grandfathered in an [`Allowlist`] with per-rule-per-file maximum
//! counts, so the count can shrink but never grow.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `.unwrap()` or `.expect(` outside test code.
    NoUnwrap,
    /// A lock guard is live across an fsync-class call.
    NoGuardAcrossFsync,
    /// A shard-lock acquisition loop without a sorted-footprint assert.
    ShardLockOrder,
}

impl Rule {
    /// Stable rule name, used in diagnostics and the allowlist format.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoGuardAcrossFsync => "no-guard-across-fsync",
            Rule::ShardLockOrder => "shard-lock-order",
        }
    }

    /// Parses a rule from its stable name.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "no-unwrap" => Some(Rule::NoUnwrap),
            "no-guard-across-fsync" => Some(Rule::NoGuardAcrossFsync),
            "shard-lock-order" => Some(Rule::ShardLockOrder),
            _ => None,
        }
    }

    /// All rules, for reporting.
    pub const ALL: [Rule; 3] = [
        Rule::NoUnwrap,
        Rule::NoGuardAcrossFsync,
        Rule::ShardLockOrder,
    ];
}

/// One rule violation at a source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// File the finding is in (relative to the scanned root).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short description of what was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------

/// Replaces comments, string literals and char literals with spaces,
/// preserving length and line structure, so the rule scanners never
/// match inside text. Handles nested block comments, raw strings with
/// any number of `#`s, byte strings and escapes; lifetimes (`'a`) are
/// left intact.
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;

    // Copies `n` source bytes as spaces (newlines kept).
    fn blank(out: &mut Vec<u8>, bytes: &[u8], from: usize, to: usize) {
        for &b in &bytes[from..to] {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let end = bytes[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(bytes.len(), |p| i + p);
            blank(&mut out, bytes, i, end);
            i = end;
            continue;
        }
        // Block comment (nests).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, bytes, start, i);
            continue;
        }
        // Raw string (and raw byte string): r#"..."#.
        if b == b'r' || (b == b'b' && bytes.get(i + 1) == Some(&b'r')) {
            let mut j = i + if b == b'b' { 2 } else { 1 };
            let mut hashes = 0;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                // Find the closing quote followed by `hashes` #s.
                let mut k = j + 1;
                'raw: while k < bytes.len() {
                    if bytes[k] == b'"' {
                        let mut h = 0;
                        while h < hashes && bytes.get(k + 1 + h) == Some(&b'#') {
                            h += 1;
                        }
                        if h == hashes {
                            k += 1 + hashes;
                            break 'raw;
                        }
                    }
                    k += 1;
                }
                blank(&mut out, bytes, i, k);
                i = k;
                continue;
            }
        }
        // String literal (and byte string).
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
            let start = i;
            i += if b == b'b' { 2 } else { 1 };
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            blank(&mut out, bytes, start, i.min(bytes.len()));
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'ident
        // (no closing quote right after) is a lifetime.
        if b == b'\'' {
            let lit_end = if bytes.get(i + 1) == Some(&b'\\') {
                // Escape: find the closing quote.
                bytes[i + 2..]
                    .iter()
                    .position(|&c| c == b'\'')
                    .map(|p| i + 2 + p + 1)
            } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                Some(i + 3)
            } else {
                None
            };
            if let Some(end) = lit_end {
                blank(&mut out, bytes, i, end.min(bytes.len()));
                i = end.min(bytes.len());
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    // The masking only ever replaces whole characters with spaces, so
    // the result is valid UTF-8 (multi-byte chars inside literals are
    // each replaced byte-for-byte with spaces).
    String::from_utf8_lossy(&out).into_owned()
}

/// Blanks every item annotated `#[cfg(test)]` (test modules and
/// functions) from already-masked source: after the attribute, the next
/// brace-delimited block (plus everything before it on the item) is
/// replaced by spaces.
pub fn mask_test_items(masked: &str) -> String {
    let bytes = masked.as_bytes();
    let mut out = masked.to_owned();
    let mut search = 0;
    while let Some(pos) = out[search..].find("#[cfg(test)]") {
        let attr_start = search + pos;
        // Find the opening brace of the annotated item.
        let Some(open_rel) = out[attr_start..].find('{') else {
            break;
        };
        let open = attr_start + open_rel;
        let mut depth = 0usize;
        let mut end = out.len();
        for (k, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let blanked: String = out[attr_start..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        out.replace_range(attr_start..end, &blanked);
        search = end.min(out.len());
    }
    out
}

fn line_of(src: &str, offset: usize) -> usize {
    src[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

// ---------------------------------------------------------------------
// Rule: no-unwrap
// ---------------------------------------------------------------------

fn scan_no_unwrap(file: &Path, code: &str, out: &mut Vec<Finding>) {
    for needle in [".unwrap()", ".expect("] {
        let mut search = 0;
        while let Some(pos) = code[search..].find(needle) {
            let at = search + pos;
            out.push(Finding {
                rule: Rule::NoUnwrap,
                file: file.to_path_buf(),
                line: line_of(code, at),
                message: format!(
                    "`{}` in non-test library code",
                    needle.trim_end_matches('(')
                ),
            });
            search = at + needle.len();
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-guard-across-fsync
// ---------------------------------------------------------------------

const SYNC_CALLS: [&str; 3] = [".sync_data()", ".sync_all()", "sync_appended("];
const GUARD_CALLS: [&str; 4] = [".lock()", ".try_lock()", ".read()", ".write()"];

fn scan_guard_across_fsync(file: &Path, code: &str, out: &mut Vec<Finding>) {
    // Walks statements tracking brace depth and live `let` guard
    // bindings; any fsync-class call while a guard is live (or in the
    // same statement as a fresh temporary guard) is a finding.
    struct Guard {
        name: String,
        depth: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let bytes = code.as_bytes();
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i <= bytes.len() {
        let boundary = i == bytes.len() || matches!(bytes[i], b';' | b'{' | b'}');
        if !boundary {
            i += 1;
            continue;
        }
        let stmt = &code[stmt_start..i];
        let has_guard_call = GUARD_CALLS.iter().any(|g| stmt.contains(g));
        let sync_at = SYNC_CALLS.iter().find_map(|s| stmt.find(s));

        if let Some(rel) = sync_at {
            let at = stmt_start + rel;
            if let Some(live) = guards.last() {
                out.push(Finding {
                    rule: Rule::NoGuardAcrossFsync,
                    file: file.to_path_buf(),
                    line: line_of(code, at),
                    message: format!("fsync-class call while lock guard `{}` is live", live.name),
                });
            } else if has_guard_call {
                out.push(Finding {
                    rule: Rule::NoGuardAcrossFsync,
                    file: file.to_path_buf(),
                    line: line_of(code, at),
                    message: "fsync-class call on an expression holding a fresh lock guard"
                        .to_owned(),
                });
            }
        }

        // `let name = ...lock()...` starts a live guard at this depth.
        if has_guard_call && sync_at.is_none() {
            let trimmed = stmt.trim_start();
            if let Some(rest) = trimmed.strip_prefix("let ") {
                let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && name != "_" {
                    guards.push(Guard { name, depth });
                }
            }
        }
        // `drop(name)` ends a guard early.
        if let Some(pos) = stmt.find("drop(") {
            let arg: String = stmt[pos + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            guards.retain(|g| g.name != arg);
        }

        if i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
        i += 1;
        stmt_start = i;
    }
}

// ---------------------------------------------------------------------
// Rule: shard-lock-order
// ---------------------------------------------------------------------

const SORTED_ASSERT: &str = "windows(2).all(|w| w[0] < w[1])";

fn scan_shard_lock_order(file: &Path, code: &str, out: &mut Vec<Finding>) {
    // A file acquiring shard locks (`store_shards[...]...lock()`) must
    // carry the canonical ascending-footprint assertion somewhere.
    let mut search = 0;
    let mut sites = Vec::new();
    while let Some(pos) = code[search..].find("store_shards[") {
        let at = search + pos;
        let mut window_end = (at + 200).min(code.len());
        while !code.is_char_boundary(window_end) {
            window_end -= 1;
        }
        if GUARD_CALLS.iter().any(|g| code[at..window_end].contains(g)) {
            sites.push(at);
        }
        search = at + "store_shards[".len();
    }
    if !sites.is_empty() && !code.contains(SORTED_ASSERT) {
        for at in sites {
            out.push(Finding {
                rule: Rule::ShardLockOrder,
                file: file.to_path_buf(),
                line: line_of(code, at),
                message: format!(
                    "shard-lock acquisition without the ascending-footprint assert `{SORTED_ASSERT}`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Driving
// ---------------------------------------------------------------------

/// Runs every rule over one file's source, returning its findings.
/// `file` is the (relative) path used in diagnostics.
pub fn scan_source(file: &Path, src: &str) -> Vec<Finding> {
    let masked = mask_test_items(&mask_source(src));
    let mut out = Vec::new();
    scan_no_unwrap(file, &masked, &mut out);
    scan_guard_across_fsync(file, &masked, &mut out);
    scan_shard_lock_order(file, &masked, &mut out);
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Walks `root` and lints every library source file: `crates/*/src`
/// recursively plus the root package's `src`. Vendored crates, `tests/`,
/// `benches/` and `examples/` directories are not library code and are
/// skipped.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let src = path.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    for dir in roots {
        scan_dir(root, &dir, &mut findings)?;
    }
    Ok(findings)
}

fn scan_dir(root: &Path, dir: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            scan_dir(root, &path, findings)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            findings.extend(scan_source(&rel, &src));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------

/// Grandfathered findings: per-rule-per-file maximum counts. The lint
/// fails when a file exceeds its budget — so new violations cannot ride
/// in on old files, and deleting old sites can only shrink the budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: Vec<(String, PathBuf, usize)>,
}

impl Allowlist {
    /// Parses the allowlist format: one `rule path max-count` line per
    /// entry, `#` comments and blank lines skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(path), Some(count), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "allowlist line {}: want `rule path count`",
                    idx + 1
                ));
            };
            if Rule::from_name(rule).is_none() {
                return Err(format!("allowlist line {}: unknown rule {rule:?}", idx + 1));
            }
            let count: usize = count
                .parse()
                .map_err(|_| format!("allowlist line {}: bad count {count:?}", idx + 1))?;
            entries.push((rule.to_owned(), PathBuf::from(path), count));
        }
        Ok(Allowlist { entries })
    }

    /// Renders findings as an allowlist that exactly grandfathers them.
    pub fn render(findings: &[Finding]) -> String {
        let mut counts: std::collections::BTreeMap<(String, PathBuf), usize> =
            std::collections::BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.rule.name().to_owned(), f.file.clone()))
                .or_default() += 1;
        }
        let mut out = String::from(
            "# Grandfathered lint findings: `rule path max-count` per line.\n\
             # Counts may shrink but must never grow; regenerate with\n\
             # `cargo run -p graphsi-lint -- --write-allowlist` after burning sites down.\n",
        );
        for ((rule, path), count) in counts {
            out.push_str(&format!("{} {} {}\n", rule, path.display(), count));
        }
        out
    }

    fn allowed(&self, rule: Rule, file: &Path) -> usize {
        self.entries
            .iter()
            .find(|(r, p, _)| r == rule.name() && p == file)
            .map_or(0, |(_, _, c)| *c)
    }
}

/// The outcome of checking findings against an allowlist.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Hard failures: files over their grandfathered budget, with the
    /// findings that overflow it.
    pub violations: Vec<String>,
    /// Files now under budget — the allowlist entry can be shrunk.
    pub shrinkable: Vec<String>,
}

impl Report {
    /// True when the lint gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks `findings` against `allowlist`, producing per-file verdicts.
pub fn evaluate(findings: &[Finding], allowlist: &Allowlist) -> Report {
    let mut by_site: std::collections::BTreeMap<(Rule, PathBuf), Vec<&Finding>> =
        std::collections::BTreeMap::new();
    for f in findings {
        by_site.entry((f.rule, f.file.clone())).or_default().push(f);
    }
    let mut report = Report::default();
    for ((rule, file), site_findings) in &by_site {
        let allowed = allowlist.allowed(*rule, file);
        let found = site_findings.len();
        if found > allowed {
            let mut lines: Vec<String> = site_findings.iter().map(|f| f.to_string()).collect();
            lines.insert(
                0,
                format!(
                    "{}: [{}] {found} finding(s), {allowed} grandfathered:",
                    file.display(),
                    rule.name()
                ),
            );
            report.violations.push(lines.join("\n  "));
        } else if found < allowed {
            report.shrinkable.push(format!(
                "{}: [{}] allowlist grants {allowed} but only {found} remain — shrink it",
                file.display(),
                rule.name()
            ));
        }
    }
    // Allowlist entries for sites that no longer fire at all.
    for (rule, path, count) in &allowlist.entries {
        let Some(rule) = Rule::from_name(rule) else {
            continue;
        };
        if *count > 0 && !by_site.contains_key(&(rule, path.clone())) {
            report.shrinkable.push(format!(
                "{}: [{}] allowlist grants {count} but none remain — delete the entry",
                path.display(),
                rule.name()
            ));
        }
    }
    report
}
