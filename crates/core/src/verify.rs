//! The online integrity verifier behind [`crate::GraphDb::verify`]: an
//! fsck that runs against a live database.
//!
//! Three sweeps, all bounded so commits keep flowing:
//!
//! 1. **Page sweep** — every page of every store file is CRC-checked
//!    against its trailer, at most a fixed number of pages per cache-lock
//!    hold (the `flush_incremental` pattern). Pages resident in the page
//!    cache are trusted: the in-memory copy is authoritative and reseals
//!    at flush.
//! 2. **Store walk** — every in-use node and relationship is decoded,
//!    which exercises property chains and relationship endpoints; a
//!    pointer into a missing or free record is a dangling chain pointer.
//! 3. **Index walk** — store state and posting indexes are compared in
//!    both directions under a read snapshot: a store fact missing from
//!    the index (or a cached MVCC version the store contradicts) is an
//!    index↔store divergence; a visible posting whose entity does not
//!    exist in the store is an orphaned posting.
//!
//! Sweeps 2 and 3 run against a moving target: a commit can be mid-apply
//! while the walk reads, so every raw finding is only a *suspect*. The
//! verifier then waits for the commit pipeline to settle (every commit
//! sequenced before the wait has fully applied and published) and
//! re-walks; only findings present in both walks are reported. On a
//! healthy database every transient anomaly is gone by the second walk —
//! zero false positives — while real corruption cannot heal itself.

use std::collections::{BTreeMap, HashSet};

use graphsi_txn::Timestamp;

use crate::db::GraphDbInner;
use crate::error::Result;

/// The classes of corruption [`crate::GraphDb::verify`] distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerifyClass {
    /// A store page whose trailer CRC does not match its contents.
    BadPageCrc,
    /// A record pointer (property chain, relationship endpoint) leading to
    /// a record that is missing, free or undecodable.
    DanglingChainPointer,
    /// Store state and a posting index (or the MVCC cache) disagree about
    /// a committed fact.
    IndexStoreDivergence,
    /// A visible index posting whose entity does not exist in the store.
    OrphanedPosting,
}

impl VerifyClass {
    /// Stable lower-kebab label used in reports and admin output.
    pub fn label(self) -> &'static str {
        match self {
            VerifyClass::BadPageCrc => "bad-page-crc",
            VerifyClass::DanglingChainPointer => "dangling-chain-pointer",
            VerifyClass::IndexStoreDivergence => "index-store-divergence",
            VerifyClass::OrphanedPosting => "orphaned-posting",
        }
    }
}

impl std::fmt::Display for VerifyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One confirmed verifier finding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VerifyFinding {
    /// The corruption class.
    pub class: VerifyClass,
    /// Human-readable description naming the file/page/entity involved.
    pub detail: String,
}

/// Structured result of one [`crate::GraphDb::verify`] run.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Store pages whose trailer CRC was checked.
    pub pages_checked: u64,
    /// Nodes and relationships walked in the store.
    pub entities_checked: u64,
    /// Findings of class [`VerifyClass::BadPageCrc`].
    pub bad_page_crc: u64,
    /// Findings of class [`VerifyClass::DanglingChainPointer`].
    pub dangling_chain_pointers: u64,
    /// Findings of class [`VerifyClass::IndexStoreDivergence`].
    pub index_store_divergences: u64,
    /// Findings of class [`VerifyClass::OrphanedPosting`].
    pub orphaned_postings: u64,
    /// Every confirmed finding, class-labelled.
    pub findings: Vec<VerifyFinding>,
}

impl VerifyReport {
    /// `true` when the run found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Total findings across all classes.
    pub fn total_findings(&self) -> u64 {
        self.findings.len() as u64
    }

    fn push(&mut self, class: VerifyClass, detail: String) {
        match class {
            VerifyClass::BadPageCrc => self.bad_page_crc += 1,
            VerifyClass::DanglingChainPointer => self.dangling_chain_pointers += 1,
            VerifyClass::IndexStoreDivergence => self.index_store_divergences += 1,
            VerifyClass::OrphanedPosting => self.orphaned_postings += 1,
        }
        self.findings.push(VerifyFinding { class, detail });
    }

    /// Renders the report in the same line-oriented plaintext style as the
    /// metrics format: per-class counts first, then one `finding <class>
    /// <detail>` line each. This is what `graphsi-admin verify` prints and
    /// the server's `VERIFY` frame returns.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("pages_checked {}\n", self.pages_checked));
        out.push_str(&format!("entities_checked {}\n", self.entities_checked));
        out.push_str(&format!("bad_page_crc {}\n", self.bad_page_crc));
        out.push_str(&format!(
            "dangling_chain_pointers {}\n",
            self.dangling_chain_pointers
        ));
        out.push_str(&format!(
            "index_store_divergences {}\n",
            self.index_store_divergences
        ));
        out.push_str(&format!("orphaned_postings {}\n", self.orphaned_postings));
        for finding in &self.findings {
            out.push_str(&format!("finding {} {}\n", finding.class, finding.detail));
        }
        out
    }
}

/// Pages examined per page-cache lock hold by the page sweep.
const VERIFY_PAGES_PER_HOLD: usize = 64;

/// Runs the full verification pass. See the module docs for the
/// suspect-then-confirm protocol.
pub(crate) fn run(inner: &GraphDbInner) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();

    // Sweep 1: page trailers. The sweep skips cache-resident pages and
    // holds each cache lock for bounded spans, so it cannot race a
    // write-back into a torn read — page findings need no confirm pass.
    let pages = inner.store.verify_pages(VERIFY_PAGES_PER_HOLD)?;
    report.pages_checked = pages.pages_checked;
    for (file, page, expected, found) in pages.corrupt {
        report.push(
            VerifyClass::BadPageCrc,
            format!(
                "page {page} of {file}: computed {expected:#010x}, trailer holds {found:#010x}"
            ),
        );
    }

    // Sweeps 2 + 3: store and index walks, suspect-then-confirm.
    let (entities, suspects) = walk(inner)?;
    report.entities_checked = entities;
    let mut confirmed = suspects;
    if !confirmed.is_empty() {
        // Settle the pipeline: every commit that was mid-apply during the
        // first walk has fully installed and published once this returns.
        inner.settle_pipeline();
        let (_, second) = walk(inner)?;
        let second: HashSet<VerifyFinding> = second.into_iter().collect();
        confirmed.retain(|f| second.contains(f));
    }
    for finding in confirmed {
        report.push(finding.class, finding.detail);
    }

    inner
        .metrics
        .record_verify(report.pages_checked, report.total_findings());
    Ok(report)
}

/// One pass of sweeps 2 and 3. Returns `(entities walked, raw findings)`;
/// the findings are suspects until confirmed by a second pass after the
/// pipeline settles.
fn walk(inner: &GraphDbInner) -> Result<(u64, Vec<VerifyFinding>)> {
    let ts = inner.visible_timestamp();
    let mut entities = 0u64;
    let mut findings = Vec::new();
    let mut push = |class: VerifyClass, detail: String| {
        findings.push(VerifyFinding { class, detail });
    };

    // Store walk: nodes. Decoding a node reads its whole property chain,
    // so a broken chain surfaces here as a typed storage error.
    for id in inner.store.scan_node_ids()? {
        entities += 1;
        match inner.store.read_node(id) {
            Err(e) => push(
                VerifyClass::DanglingChainPointer,
                format!("node {}: {e}", id.raw()),
            ),
            Ok(None) => {}
            Ok(Some(stored)) => {
                let node_ts = Timestamp(stored.commit_ts);
                let properties: BTreeMap<_, _> = stored.properties.into_iter().collect();
                if node_ts > ts {
                    // Committed after our snapshot (applied, not yet
                    // published) — the index at `ts` legitimately predates
                    // it.
                    continue;
                }
                for label in &stored.labels {
                    if !inner.indexes.labels.has_label(*label, id, ts) {
                        push(
                            VerifyClass::IndexStoreDivergence,
                            format!(
                                "node {} carries label {} in the store but has no visible posting",
                                id.raw(),
                                label.0
                            ),
                        );
                    }
                }
                for (key, value) in &properties {
                    if !inner.indexes.node_properties.contains(*key, value, id, ts) {
                        push(
                            VerifyClass::IndexStoreDivergence,
                            format!(
                                "node {} has property {} in the store but no visible posting",
                                id.raw(),
                                key.0
                            ),
                        );
                    }
                }
                // MVCC cache versus store: if the cache's newest committed
                // version is visible at our snapshot, the store (which
                // holds exactly the newest committed version) must agree.
                if let graphsi_mvcc::CacheLookup::Hit(hit) = inner.node_cache.lookup(id, ts) {
                    if inner.node_cache.newest_commit_ts(id) == Some(hit.commit_ts) {
                        if let Some(cached) = hit.payload {
                            let mut cached_labels = cached.labels.clone();
                            let mut store_labels = stored.labels.clone();
                            cached_labels.sort_unstable_by_key(|l| l.0);
                            store_labels.sort_unstable_by_key(|l| l.0);
                            if node_ts < hit.commit_ts
                                || (node_ts == hit.commit_ts
                                    && (cached_labels != store_labels
                                        || cached.properties != properties))
                            {
                                push(
                                    VerifyClass::IndexStoreDivergence,
                                    format!(
                                        "node {} diverges from its cached version at ts {}",
                                        id.raw(),
                                        hit.commit_ts.raw()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // Store walk: relationships, including endpoint existence.
    for id in inner.store.scan_relationship_ids()? {
        entities += 1;
        match inner.store.read_relationship(id) {
            Err(e) => push(
                VerifyClass::DanglingChainPointer,
                format!("relationship {}: {e}", id.raw()),
            ),
            Ok(None) => {}
            Ok(Some(stored)) => {
                for (role, node) in [("source", stored.source), ("target", stored.target)] {
                    match inner.store.node_exists(node) {
                        Ok(true) => {}
                        Ok(false) => push(
                            VerifyClass::DanglingChainPointer,
                            format!(
                                "relationship {} {role} node {} is not in use",
                                id.raw(),
                                node.raw()
                            ),
                        ),
                        Err(e) => push(
                            VerifyClass::DanglingChainPointer,
                            format!("relationship {} {role} node: {e}", id.raw()),
                        ),
                    }
                }
                if Timestamp(stored.commit_ts) > ts {
                    continue;
                }
                for (key, value) in &stored.properties {
                    if !inner
                        .indexes
                        .relationship_properties
                        .contains(*key, value, id, ts)
                    {
                        push(
                            VerifyClass::IndexStoreDivergence,
                            format!(
                                "relationship {} has property {} in the store but no visible \
                                 posting",
                                id.raw(),
                                key.0
                            ),
                        );
                    }
                }
            }
        }
    }

    // Index walk: every posting visible at the snapshot must point at a
    // live store entity that agrees with it.
    for label in inner.indexes.labels.labels() {
        for node in inner.indexes.labels.nodes_with_label(label, ts) {
            match inner.store.read_node_record(node) {
                Err(e) => push(
                    VerifyClass::DanglingChainPointer,
                    format!("node {}: {e}", node.raw()),
                ),
                Ok(None) => push(
                    VerifyClass::OrphanedPosting,
                    format!(
                        "label {} posting for node {} but the node is not in the store",
                        label.0,
                        node.raw()
                    ),
                ),
                Ok(Some(record)) => {
                    // Only judge when the store's version is inside our
                    // snapshot; a newer store version may legitimately
                    // have dropped the label.
                    if Timestamp(record.commit_ts) <= ts && !record.labels.contains(&label) {
                        push(
                            VerifyClass::IndexStoreDivergence,
                            format!(
                                "label {} posting for node {} but the store record lacks it",
                                label.0,
                                node.raw()
                            ),
                        );
                    }
                }
            }
        }
    }

    Ok((entities, findings))
}
