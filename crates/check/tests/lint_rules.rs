//! Seeded-violation tests for the lint rules: each rule must fire on a
//! synthetic source file carrying exactly the violation it polices, and
//! must stay quiet on the cleaned-up version of the same code. This is
//! the proof that the CI gate actually gates — a lint that never fires
//! is indistinguishable from no lint at all.

use std::path::Path;

use graphsi_check::lint::{evaluate, mask_source, mask_test_items, scan_source, Allowlist, Rule};

fn findings_for(src: &str) -> Vec<graphsi_check::lint::Finding> {
    scan_source(Path::new("synthetic.rs"), src)
}

fn rules_fired(src: &str) -> Vec<Rule> {
    let mut rules: Vec<Rule> = findings_for(src).into_iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

// -----------------------------------------------------------------
// no-unwrap
// -----------------------------------------------------------------

#[test]
fn no_unwrap_fires_on_unwrap_and_expect() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    a + b
}
"#;
    let findings = findings_for(src);
    let unwraps: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::NoUnwrap)
        .collect();
    assert_eq!(unwraps.len(), 2, "{findings:?}");
    assert_eq!(unwraps[0].line, 3);
    assert_eq!(unwraps[1].line, 4);
}

#[test]
fn no_unwrap_quiet_on_typed_errors() {
    let src = r#"
fn f(x: Option<u32>) -> Result<u32, String> {
    x.ok_or_else(|| "missing".to_owned())
}
"#;
    assert!(rules_fired(src).is_empty());
}

#[test]
fn no_unwrap_ignores_test_code_strings_and_comments() {
    let src = r#"
// A comment mentioning .unwrap() is not a finding.
fn f() -> &'static str {
    "calling .unwrap() in a string is fine"
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
"#;
    assert!(rules_fired(src).is_empty(), "{:?}", findings_for(src));
}

// -----------------------------------------------------------------
// no-guard-across-fsync
// -----------------------------------------------------------------

#[test]
fn guard_across_fsync_fires_on_held_guard() {
    let src = r#"
fn flush(file: &std::fs::File, m: &Mutex<u32>) {
    let inner = m.lock();
    file.sync_data();
    drop(inner);
}
"#;
    let findings = findings_for(src);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::NoGuardAcrossFsync)
        .collect();
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("inner"), "{}", hits[0].message);
}

#[test]
fn guard_across_fsync_fires_on_fresh_guard_same_statement() {
    let src = r#"
fn flush(m: &Mutex<std::fs::File>) {
    m.lock().sync_data();
}
"#;
    assert_eq!(rules_fired(src), vec![Rule::NoGuardAcrossFsync]);
}

#[test]
fn guard_across_fsync_quiet_when_guard_dropped_first() {
    let src = r#"
fn flush(file: &std::fs::File, m: &Mutex<u32>) {
    let inner = m.lock();
    let snapshot = *inner;
    drop(inner);
    file.sync_data();
    let _ = snapshot;
}
"#;
    assert!(rules_fired(src).is_empty(), "{:?}", findings_for(src));
}

#[test]
fn guard_across_fsync_quiet_when_guard_scope_closed() {
    let src = r#"
fn flush(file: &std::fs::File, m: &Mutex<u32>) {
    {
        let inner = m.lock();
        let _ = *inner;
    }
    file.sync_data();
}
"#;
    assert!(rules_fired(src).is_empty(), "{:?}", findings_for(src));
}

// -----------------------------------------------------------------
// shard-lock-order
// -----------------------------------------------------------------

#[test]
fn shard_lock_order_fires_without_sorted_assert() {
    let src = r#"
fn apply(&self, shards: &[usize]) {
    for &s in shards {
        let guard = self.store_shards[s].lock();
        let _ = guard;
    }
}
"#;
    assert_eq!(rules_fired(src), vec![Rule::ShardLockOrder]);
}

#[test]
fn shard_lock_order_quiet_with_sorted_assert() {
    let src = r#"
fn apply(&self, shards: &[usize]) {
    debug_assert!(shards.windows(2).all(|w| w[0] < w[1]));
    for &s in shards {
        let guard = self.store_shards[s].lock();
        let _ = guard;
    }
}
"#;
    assert!(rules_fired(src).is_empty(), "{:?}", findings_for(src));
}

// -----------------------------------------------------------------
// Masking primitives
// -----------------------------------------------------------------

#[test]
fn masking_preserves_length_and_lines() {
    let src = "let s = \"a\\\"b\"; // trailing\nlet c = 'x';\n/* block\nspans */ let l: &'static str = r#\"raw \"quoted\"\"#;\n";
    let masked = mask_source(src);
    assert_eq!(masked.len(), src.len());
    assert_eq!(
        masked.matches('\n').count(),
        src.matches('\n').count(),
        "newlines must survive masking for line numbers to hold"
    );
    assert!(!masked.contains("trailing"));
    assert!(!masked.contains("quoted"));
    assert!(masked.contains("'static"), "lifetimes must survive");
}

#[test]
fn test_item_masking_blanks_cfg_test_modules() {
    let src =
        "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
    let masked = mask_test_items(&mask_source(src));
    assert!(!masked.contains("unwrap"));
    assert!(masked.contains("fn lib()"));
    assert!(masked.contains("fn lib2()"));
}

// -----------------------------------------------------------------
// Allowlist semantics
// -----------------------------------------------------------------

#[test]
fn allowlist_budget_is_a_ceiling_not_a_license() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    let findings = findings_for(src);
    assert_eq!(findings.len(), 2);

    // Exactly at budget: passes.
    let at_budget = Allowlist::parse("no-unwrap synthetic.rs 2\n").unwrap();
    assert!(evaluate(&findings, &at_budget).passed());

    // Under budget: passes but is flagged shrinkable.
    let over_granted = Allowlist::parse("no-unwrap synthetic.rs 3\n").unwrap();
    let report = evaluate(&findings, &over_granted);
    assert!(report.passed());
    assert_eq!(report.shrinkable.len(), 1);

    // Over budget: the gate fails and the diagnostic carries file:line.
    let tight = Allowlist::parse("no-unwrap synthetic.rs 1\n").unwrap();
    let report = evaluate(&findings, &tight);
    assert!(!report.passed());
    assert!(report.violations[0].contains("synthetic.rs:3"));
}

#[test]
fn allowlist_render_round_trips() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = findings_for(src);
    let rendered = Allowlist::render(&findings);
    let parsed = Allowlist::parse(&rendered).unwrap();
    assert!(evaluate(&findings, &parsed).passed());
}

#[test]
fn allowlist_rejects_malformed_lines() {
    assert!(Allowlist::parse("no-unwrap missing-count.rs\n").is_err());
    assert!(Allowlist::parse("not-a-rule foo.rs 1\n").is_err());
    assert!(Allowlist::parse("no-unwrap foo.rs many\n").is_err());
    assert!(Allowlist::parse("# just a comment\n\n").is_ok());
}

#[test]
fn stale_allowlist_entries_are_reported_shrinkable() {
    let allow = Allowlist::parse("no-unwrap gone.rs 4\n").unwrap();
    let report = evaluate(&[], &allow);
    assert!(report.passed());
    assert_eq!(report.shrinkable.len(), 1);
    assert!(report.shrinkable[0].contains("gone.rs"));
}
