//! Token registries: interned label names, property key names and
//! relationship type names.
//!
//! Neo4j stores these small string → token mappings in dedicated token
//! stores; as the paper notes, **tokens are never deleted** even when no
//! entity uses them any more — deletion semantics are handled at the index
//! layer by versioning. Each registry is persisted in a simple
//! length-prefixed file.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::ids::{LabelToken, PropertyKeyToken, RelTypeToken};

/// Maximum number of tokens per registry (token IDs are `u32`).
pub const MAX_TOKENS: usize = u32::MAX as usize;

struct RegistryInner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

/// An append-only interning registry mapping names to dense `u32` tokens.
pub struct TokenRegistry {
    path: PathBuf,
    kind: &'static str,
    inner: RwLock<RegistryInner>,
}

impl TokenRegistry {
    /// Opens (or creates) the registry persisted at `path`.
    pub fn open(path: impl AsRef<Path>, kind: &'static str) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let names = match fs::read(&path) {
            Ok(bytes) => Self::decode(&bytes, &path)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StorageError::io("reading token file", e)),
        };
        let by_name = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Ok(TokenRegistry {
            path,
            kind,
            // Lock-order rank: see the README's lock-rank map (a leaf —
            // never held across another acquisition).
            inner: RwLock::with_rank(RegistryInner { names, by_name }, 2700, "storage.tokens"),
        })
    }

    /// Creates an in-memory registry that is never persisted.
    pub fn ephemeral(kind: &'static str) -> Self {
        TokenRegistry {
            path: PathBuf::new(),
            kind,
            inner: RwLock::with_rank(
                RegistryInner {
                    names: Vec::new(),
                    by_name: HashMap::new(),
                },
                2700,
                "storage.tokens",
            ),
        }
    }

    /// Returns the token for `name`, creating it if it does not exist yet.
    ///
    /// Newly created tokens are persisted immediately (token creation is
    /// rare and tokens are never deleted), so a crash between a commit and
    /// the next checkpoint cannot lose the name ↔ token mapping that the
    /// WAL's commit records rely on.
    pub fn get_or_create(&self, name: &str) -> Result<u32> {
        if let Some(&token) = self.inner.read().by_name.get(name) {
            return Ok(token);
        }
        let mut inner = self.inner.write();
        if let Some(&token) = inner.by_name.get(name) {
            return Ok(token);
        }
        if inner.names.len() >= MAX_TOKENS {
            return Err(StorageError::TokenLimitExceeded { kind: self.kind });
        }
        let token = inner.names.len() as u32;
        inner.names.push(name.to_owned());
        inner.by_name.insert(name.to_owned(), token);
        Self::persist_inner(&self.path, &inner)?;
        Ok(token)
    }

    /// Returns the token for `name` if it already exists.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Returns the name behind `token`, if the token exists.
    pub fn name(&self, token: u32) -> Option<String> {
        self.inner.read().names.get(token as usize).cloned()
    }

    /// Number of tokens registered so far.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Returns `true` if no tokens have been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All registered names in token order.
    pub fn all_names(&self) -> Vec<String> {
        self.inner.read().names.clone()
    }

    /// Persists the registry. A no-op for ephemeral registries.
    pub fn persist(&self) -> Result<()> {
        let inner = self.inner.read();
        Self::persist_inner(&self.path, &inner)
    }

    fn persist_inner(path: &Path, inner: &RegistryInner) -> Result<()> {
        if path.as_os_str().is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(inner.names.len() as u64).to_le_bytes());
        for name in &inner.names {
            let b = name.as_bytes();
            bytes.extend_from_slice(&(b.len() as u32).to_le_bytes());
            bytes.extend_from_slice(b);
        }
        fs::write(path, bytes).map_err(|e| StorageError::io("writing token file", e))
    }

    fn decode(bytes: &[u8], path: &Path) -> Result<Vec<String>> {
        let corrupt = |reason: &str| StorageError::InvalidStoreDirectory {
            path: path.to_path_buf(),
            reason: format!("corrupt token file: {reason}"),
        };
        let Some((count, _)) = bytes.split_first_chunk::<8>() else {
            return Err(corrupt("missing header"));
        };
        let count = u64::from_le_bytes(*count);
        // Each name needs at least a 4-byte length prefix, so `count` can
        // never legitimately exceed the remaining bytes / 4. This also guards
        // the pre-allocation below against corrupt headers.
        let count = usize::try_from(count)
            .ok()
            .filter(|&count| count <= (bytes.len() - 8) / 4)
            .ok_or_else(|| corrupt("token count exceeds file size"))?;
        let mut names = Vec::with_capacity(count);
        let mut off = 8usize;
        for _ in 0..count {
            let Some((len, _)) = bytes[off..].split_first_chunk::<4>() else {
                return Err(corrupt("truncated length"));
            };
            let len = u32::from_le_bytes(*len) as usize;
            off += 4;
            if off + len > bytes.len() {
                return Err(corrupt("truncated name"));
            }
            let name = std::str::from_utf8(&bytes[off..off + len])
                .map_err(|_| corrupt("invalid UTF-8"))?
                .to_owned();
            off += len;
            names.push(name);
        }
        Ok(names)
    }
}

impl std::fmt::Debug for TokenRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenRegistry")
            .field("kind", &self.kind)
            .field("len", &self.len())
            .finish()
    }
}

/// The three token registries used by a graph store.
pub struct TokenStores {
    /// Label name registry.
    pub labels: TokenRegistry,
    /// Property key name registry.
    pub property_keys: TokenRegistry,
    /// Relationship type name registry.
    pub rel_types: TokenRegistry,
}

impl TokenStores {
    /// Opens all three registries inside `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        Ok(TokenStores {
            labels: TokenRegistry::open(dir.join("labels.tokens"), "label")?,
            property_keys: TokenRegistry::open(dir.join("property_keys.tokens"), "property key")?,
            rel_types: TokenRegistry::open(dir.join("rel_types.tokens"), "relationship type")?,
        })
    }

    /// Creates in-memory registries that are never persisted.
    pub fn ephemeral() -> Self {
        TokenStores {
            labels: TokenRegistry::ephemeral("label"),
            property_keys: TokenRegistry::ephemeral("property key"),
            rel_types: TokenRegistry::ephemeral("relationship type"),
        }
    }

    /// Returns the label token for `name`, creating it if needed.
    pub fn label(&self, name: &str) -> Result<LabelToken> {
        self.labels.get_or_create(name).map(LabelToken)
    }

    /// Returns the property key token for `name`, creating it if needed.
    pub fn property_key(&self, name: &str) -> Result<PropertyKeyToken> {
        self.property_keys.get_or_create(name).map(PropertyKeyToken)
    }

    /// Returns the relationship type token for `name`, creating it if
    /// needed.
    pub fn rel_type(&self, name: &str) -> Result<RelTypeToken> {
        self.rel_types.get_or_create(name).map(RelTypeToken)
    }

    /// Looks up an existing label token without creating it.
    pub fn existing_label(&self, name: &str) -> Option<LabelToken> {
        self.labels.get(name).map(LabelToken)
    }

    /// Looks up an existing property key token without creating it.
    pub fn existing_property_key(&self, name: &str) -> Option<PropertyKeyToken> {
        self.property_keys.get(name).map(PropertyKeyToken)
    }

    /// Looks up an existing relationship type token without creating it.
    pub fn existing_rel_type(&self, name: &str) -> Option<RelTypeToken> {
        self.rel_types.get(name).map(RelTypeToken)
    }

    /// Name behind a label token.
    pub fn label_name(&self, token: LabelToken) -> Option<String> {
        self.labels.name(token.0)
    }

    /// Name behind a property key token.
    pub fn property_key_name(&self, token: PropertyKeyToken) -> Option<String> {
        self.property_keys.name(token.0)
    }

    /// Name behind a relationship type token.
    pub fn rel_type_name(&self, token: RelTypeToken) -> Option<String> {
        self.rel_types.name(token.0)
    }

    /// Persists all three registries.
    pub fn persist(&self) -> Result<()> {
        self.labels.persist()?;
        self.property_keys.persist()?;
        self.rel_types.persist()
    }
}

impl std::fmt::Debug for TokenStores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenStores")
            .field("labels", &self.labels.len())
            .field("property_keys", &self.property_keys.len())
            .field("rel_types", &self.rel_types.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    #[test]
    fn interning_is_stable() {
        let reg = TokenRegistry::ephemeral("label");
        let a = reg.get_or_create("Person").unwrap();
        let b = reg.get_or_create("Company").unwrap();
        let a2 = reg.get_or_create("Person").unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(reg.name(a), Some("Person".to_owned()));
        assert_eq!(reg.get("Company"), Some(b));
        assert_eq!(reg.get("Missing"), None);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn persist_and_reopen() {
        let dir = TempDir::new("tokens");
        let path = dir.path().join("labels.tokens");
        {
            let reg = TokenRegistry::open(&path, "label").unwrap();
            reg.get_or_create("A").unwrap();
            reg.get_or_create("B").unwrap();
            reg.get_or_create("C").unwrap();
            reg.persist().unwrap();
        }
        let reg = TokenRegistry::open(&path, "label").unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.get("B"), Some(1));
        assert_eq!(reg.all_names(), vec!["A", "B", "C"]);
        // New tokens continue after the persisted ones.
        assert_eq!(reg.get_or_create("D").unwrap(), 3);
    }

    #[test]
    fn corrupt_token_file_is_rejected() {
        let dir = TempDir::new("tokens_corrupt");
        let path = dir.path().join("bad.tokens");
        std::fs::write(&path, [9u8; 12]).unwrap();
        assert!(TokenRegistry::open(&path, "label").is_err());
    }

    #[test]
    fn token_stores_round_trip_names() {
        let dir = TempDir::new("token_stores");
        let stores = TokenStores::open(dir.path()).unwrap();
        let person = stores.label("Person").unwrap();
        let age = stores.property_key("age").unwrap();
        let knows = stores.rel_type("KNOWS").unwrap();
        assert_eq!(stores.label_name(person), Some("Person".to_owned()));
        assert_eq!(stores.property_key_name(age), Some("age".to_owned()));
        assert_eq!(stores.rel_type_name(knows), Some("KNOWS".to_owned()));
        assert_eq!(stores.existing_label("Person"), Some(person));
        assert_eq!(stores.existing_label("Nope"), None);
        assert_eq!(stores.existing_property_key("age"), Some(age));
        assert_eq!(stores.existing_rel_type("KNOWS"), Some(knows));
        stores.persist().unwrap();

        let stores = TokenStores::open(dir.path()).unwrap();
        assert_eq!(stores.existing_label("Person"), Some(person));
    }

    #[test]
    fn ephemeral_token_stores_do_not_touch_disk() {
        let stores = TokenStores::ephemeral();
        stores.label("X").unwrap();
        assert!(stores.persist().is_ok());
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        use std::sync::Arc;
        let reg = Arc::new(TokenRegistry::ephemeral("label"));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| reg.get_or_create(&format!("L{}", i % 10)).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.len(), 10);
        // The same name always maps to the same token.
        for i in 0..10 {
            let name = format!("L{i}");
            assert_eq!(reg.get(&name), Some(reg.get_or_create(&name).unwrap()));
        }
    }
}
