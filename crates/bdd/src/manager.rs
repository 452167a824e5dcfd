//! Hash-consed reduced ordered BDDs over a shared node store.
//!
//! Since the provenance-compression PR, nodes no longer live inside each
//! [`BddManager`]: every manager is a lightweight handle onto a
//! [`SharedBddStore`] — by default one process-global store — so structurally
//! identical condition BDDs built by different sessions, policies or nodes
//! cost a single allocation and share one bounded apply memo.
//!
//! # Determinism
//!
//! Node identifiers are **content-keyed**: an internal node's id is a 63-bit
//! Merkle-style hash of `(var, low.id, high.id)` (terminals are fixed at 0
//! and 1).  A node therefore has the same id no matter which handle interned
//! it first or how concurrent sessions interleave — handle values, and the
//! annotation tokens derived from them, are reproducible across runs and
//! shard counts.  Hash-consing canonicity is preserved: equal handles still
//! mean semantically equal boolean functions.  An id collision between two
//! distinct nodes is detected at interning time and panics; over a 63-bit
//! space this is astronomically unlikely at any workload size this
//! workspace reaches.
//!
//! # Memory
//!
//! The store's apply/negation memos are bounded at [`MEMO_CAPACITY`] entries
//! and epoch-cleared when full (the classic computed-table policy), so a
//! long-lived deployment no longer grows its memo without bound.  Interned
//! nodes are permanent — repeating a workload allocates nothing new, which
//! is what keeps long churn runs at steady-state memory.
//!
//! A node is 24 bytes: its variable, its two children, and in what would
//! otherwise be padding the number of internal nodes reachable from it.
//! That count is a pure function of the node's structure, and nodes are
//! immutable and permanent, so it is computed by one reachable walk the
//! first time a root is sized and [`BddManager::serialized_size`] is O(1)
//! for that root afterwards.  `0` marks "not yet computed" (every internal
//! node reaches at least itself); the count takes no part in the id
//! collision check.
//!
//! # Hashing
//!
//! The node table is keyed by content ids that are already splitmix-mixed,
//! so it hashes an id to itself (`IdHasher`).  The apply and negation
//! memos use [`exspan_types::fasthash::FastHasher`].  Neither map is
//! iterated, so the hashers cannot change a handle, a count or an order.

use exspan_types::fasthash::FastHashMap;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Identifier of a boolean variable.  In ExSPAN each variable stands for one
/// base tuple (or, at node granularity, one node / trust domain).
pub type VarId = u32;

/// Bound on the shared store's apply + negation memo sizes.  When either
/// memo reaches this many entries both are cleared and the epoch counter in
/// [`MemoStats::clears`] increments.
pub const MEMO_CAPACITY: usize = 1 << 16;

/// High bit tagging internal-node ids, so they never collide with the
/// terminal ids 0 and 1.
const NODE_ID_TAG: u64 = 1 << 63;

/// A handle to a BDD node in a [`SharedBddStore`].
///
/// Handles are meaningful relative to the store that interned them — which
/// for every manager built with [`BddManager::new`] is the process-global
/// store, so such handles interchange freely across managers.  Equal handles
/// denote semantically equal boolean functions (canonicity of ROBDDs), and
/// because ids are content-keyed the *numeric* handle value is deterministic
/// too, independent of interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u64);

impl Bdd {
    /// The constant `false` function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant `true` function.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this handle is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Raw content-keyed id, exposed for serialization and for shipping
    /// handles as opaque annotation tokens.
    pub fn index(self) -> u64 {
        self.0
    }

    /// Reconstructs a handle from a raw id previously obtained through
    /// [`Bdd::index`].  The id must refer to a node of the same store.
    pub fn from_raw(index: u64) -> Bdd {
        Bdd(index)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: VarId,
    /// Internal nodes reachable from this one, itself included; `0` until
    /// first computed (see the module docs).
    size: u32,
    low: Bdd,
    high: Bdd,
}

/// Pass-through hasher for maps keyed by content ids: the id is already a
/// full-avalanche mix of the node's shape, so it is its own hash.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys use this hasher; fold anything else in bytewise.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;
type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
}

/// Counters of the shared store's bounded memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Apply/negation results answered from the memo.
    pub hits: u64,
    /// Apply/negation recursions that had to compute.
    pub misses: u64,
    /// Times the memos were epoch-cleared after reaching [`MEMO_CAPACITY`].
    pub clears: u64,
    /// Current apply-memo entries (≤ [`MEMO_CAPACITY`]).
    pub entries: usize,
}

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Content-keyed node id: a Merkle-style hash of the node's shape.  The
/// chained mixing keeps `(low, high)` asymmetric; the tag bit keeps internal
/// ids disjoint from the terminals.
fn node_id(var: VarId, low: u64, high: u64) -> u64 {
    let mut h = mix(0x9E37_79B9_7F4A_7C15 ^ u64::from(var));
    h = mix(h ^ low);
    h = mix(h ^ high);
    h | NODE_ID_TAG
}

/// Number of bytes the LEB128 varint encoding of `x` takes.
fn varint_len(x: u64) -> usize {
    let mut x = x;
    let mut n = 1;
    while x >= 0x80 {
        x >>= 7;
        n += 1;
    }
    n
}

#[derive(Debug, Default)]
struct StoreInner {
    nodes: IdMap<Node>,
    apply_memo: FastHashMap<(Op, Bdd, Bdd), Bdd>,
    not_memo: FastHashMap<Bdd, Bdd>,
    hits: u64,
    misses: u64,
    clears: u64,
}

impl StoreInner {
    fn node(&self, b: Bdd) -> Node {
        *self
            .nodes
            .get(&b.0)
            .expect("BDD handle does not belong to this store")
    }

    fn mk_node(&mut self, var: VarId, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        let id = node_id(var, low.0, high.0);
        if let Some(existing) = self.nodes.get(&id) {
            assert!(
                (existing.var, existing.low, existing.high) == (var, low, high),
                "content-keyed BDD node id collision"
            );
            return Bdd(id);
        }
        self.nodes.insert(
            id,
            Node {
                var,
                size: 0,
                low,
                high,
            },
        );
        Bdd(id)
    }

    fn clear_memos(&mut self) {
        self.apply_memo.clear();
        self.not_memo.clear();
        self.clears += 1;
    }

    fn not(&mut self, a: Bdd) -> Bdd {
        if a == Bdd::TRUE {
            return Bdd::FALSE;
        }
        if a == Bdd::FALSE {
            return Bdd::TRUE;
        }
        if let Some(&r) = self.not_memo.get(&a) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let n = self.node(a);
        let low = self.not(n.low);
        let high = self.not(n.high);
        let r = self.mk_node(n.var, low, high);
        if self.not_memo.len() >= MEMO_CAPACITY {
            self.clear_memos();
        }
        self.not_memo.insert(a, r);
        r
    }

    fn apply(&mut self, op: Op, a: Bdd, b: Bdd) -> Bdd {
        // Terminal short-circuits.
        match op {
            Op::And => {
                if a == Bdd::FALSE || b == Bdd::FALSE {
                    return Bdd::FALSE;
                }
                if a == Bdd::TRUE {
                    return b;
                }
                if b == Bdd::TRUE {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == Bdd::TRUE || b == Bdd::TRUE {
                    return Bdd::TRUE;
                }
                if a == Bdd::FALSE {
                    return b;
                }
                if b == Bdd::FALSE {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
        }
        // Normalize operand order for the (commutative) memo.  Ids are
        // content-keyed, so the normalized key is itself deterministic.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.apply_memo.get(&key) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let na = self.node(a);
        let nb = self.node(b);
        let var = na.var.min(nb.var);
        let (a_low, a_high) = if na.var == var {
            (na.low, na.high)
        } else {
            (a, a)
        };
        let (b_low, b_high) = if nb.var == var {
            (nb.low, nb.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a_low, b_low);
        let high = self.apply(op, a_high, b_high);
        let r = self.mk_node(var, low, high);
        if self.apply_memo.len() >= MEMO_CAPACITY {
            self.clear_memos();
        }
        self.apply_memo.insert(key, r);
        r
    }

    fn restrict(&mut self, b: Bdd, v: VarId, value: bool) -> Bdd {
        if b.is_terminal() {
            return b;
        }
        let n = self.node(b);
        if n.var > v {
            // Ordered: variable v does not occur below.
            return b;
        }
        if n.var == v {
            return if value { n.high } else { n.low };
        }
        let low = self.restrict(n.low, v, value);
        let high = self.restrict(n.high, v, value);
        self.mk_node(n.var, low, high)
    }

    /// Internal nodes reachable from `b`: read from the node after the
    /// first call for `b`, computed by one walk before that.
    fn reachable_internal_count(&mut self, b: Bdd) -> usize {
        if b.is_terminal() {
            return 0;
        }
        let cached = self.node(b).size;
        if cached != 0 {
            return cached as usize;
        }
        let count = self.walk_internal_count(b);
        if let (Ok(size), Some(node)) = (u32::try_from(count), self.nodes.get_mut(&b.0)) {
            node.size = size;
        }
        count
    }

    fn walk_internal_count(&self, b: Bdd) -> usize {
        let mut visited = IdSet::default();
        let mut stack = vec![b];
        while let Some(cur) = stack.pop() {
            if cur.is_terminal() || !visited.insert(cur.0) {
                continue;
            }
            let n = self.node(cur);
            stack.push(n.low);
            stack.push(n.high);
        }
        visited.len()
    }

    /// Varint-serialized size: nodes are numbered 0..n in a deterministic
    /// structural postorder (low child first), references are varints (0/1
    /// for terminals, local index + 2 otherwise), each node costs
    /// `varint(var) + varint(low ref) + varint(high ref)`, and the root
    /// reference closes the encoding.
    fn compressed_size_walk(&self, b: Bdd, local: &mut IdMap<u64>, size: &mut usize) {
        if b.is_terminal() || local.contains_key(&b.0) {
            return;
        }
        let n = self.node(b);
        self.compressed_size_walk(n.low, local, size);
        self.compressed_size_walk(n.high, local, size);
        let child_ref = |x: Bdd, local: &IdMap<u64>| {
            if x.is_terminal() {
                x.0
            } else {
                local[&x.0] + 2
            }
        };
        *size += varint_len(u64::from(n.var))
            + varint_len(child_ref(n.low, local))
            + varint_len(child_ref(n.high, local));
        local.insert(b.0, local.len() as u64);
    }

    fn compressed_serialized_size(&self, b: Bdd) -> usize {
        if b.is_terminal() {
            return varint_len(b.0);
        }
        let mut local = IdMap::default();
        let mut size = 0usize;
        self.compressed_size_walk(b, &mut local, &mut size);
        size + varint_len(local[&b.0] + 2)
    }
}

/// One interned node table plus bounded apply memo, shared by any number of
/// [`BddManager`] handles.  [`SharedBddStore::global`] is the process-wide
/// instance every `BddManager::new()` attaches to; [`SharedBddStore::new`]
/// creates an isolated store (tests and benchmarks that measure allocation
/// behavior want one not shared with concurrently running code).
#[derive(Debug, Clone, Default)]
pub struct SharedBddStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl SharedBddStore {
    /// Creates a fresh, isolated store containing only the two terminals.
    pub fn new() -> SharedBddStore {
        SharedBddStore::default()
    }

    /// The process-global store.
    pub fn global() -> SharedBddStore {
        static GLOBAL: OnceLock<SharedBddStore> = OnceLock::new();
        GLOBAL.get_or_init(SharedBddStore::new).clone()
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("shared BDD store poisoned")
    }

    /// Number of interned nodes, including the two terminals.
    pub fn node_count(&self) -> usize {
        self.lock().nodes.len() + 2
    }

    /// Memo counters (hits, misses, epoch clears, current entries).
    pub fn memo_stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            hits: inner.hits,
            misses: inner.misses,
            clears: inner.clears,
            entries: inner.apply_memo.len(),
        }
    }
}

/// A handle onto a [`SharedBddStore`] providing boolean operations.
///
/// ```
/// use exspan_bdd::BddManager;
/// let mut m = BddManager::new();
/// let a = m.var(0);
/// let b = m.var(1);
/// let ab = m.and(a, b);
/// let f = m.or(a, ab);
/// assert_eq!(f, a); // absorption
/// assert!(m.implies(f, a));
/// ```
///
/// # Migration from the owning manager
///
/// `BddManager` used to own its node table; it is now a handle, and
/// `BddManager::new()` attaches to the process-global [`SharedBddStore`].
/// Consequences for callers of the old API:
///
/// * [`Bdd::index`] / [`Bdd::from_raw`] are `u64` (content-keyed ids), no
///   longer `u32` slot indices.
/// * `Clone` shares the store instead of deep-copying the node table.
/// * [`BddManager::node_count`] reports the *store's* population.  Code
///   that asserts allocation behavior should attach to an isolated store
///   via [`BddManager::with_store`].
#[derive(Debug, Clone)]
pub struct BddManager {
    store: SharedBddStore,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a handle onto the process-global shared store.
    pub fn new() -> Self {
        BddManager {
            store: SharedBddStore::global(),
        }
    }

    /// Creates a handle onto a specific (e.g. isolated) store.
    pub fn with_store(store: SharedBddStore) -> Self {
        BddManager { store }
    }

    /// The store this handle operates on.
    pub fn store(&self) -> &SharedBddStore {
        &self.store
    }

    /// Number of nodes in the underlying store, including the two terminals.
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Memo counters of the underlying store.
    pub fn memo_stats(&self) -> MemoStats {
        self.store.memo_stats()
    }

    /// Returns the BDD for a single positive variable literal.
    pub fn var(&mut self, v: VarId) -> Bdd {
        self.store.lock().mk_node(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// Returns the constant BDD for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Conjunction of two BDDs.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.store.lock().apply(Op::And, a, b)
    }

    /// Disjunction of two BDDs.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.store.lock().apply(Op::Or, a, b)
    }

    /// Negation of a BDD.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        self.store.lock().not(a)
    }

    /// Conjunction of an iterator of BDDs (`true` for an empty iterator).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut inner = self.store.lock();
        let mut acc = Bdd::TRUE;
        for b in items {
            acc = inner.apply(Op::And, acc, b);
            if acc == Bdd::FALSE {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of BDDs (`false` for an empty iterator).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut inner = self.store.lock();
        let mut acc = Bdd::FALSE;
        for b in items {
            acc = inner.apply(Op::Or, acc, b);
            if acc == Bdd::TRUE {
                break;
            }
        }
        acc
    }

    /// Restricts variable `v` to `value` in `b` (Shannon cofactor).
    pub fn restrict(&mut self, b: Bdd, v: VarId, value: bool) -> Bdd {
        self.store.lock().restrict(b, v, value)
    }

    /// Evaluates the function under a total assignment: `assignment(v)` gives
    /// the truth value of variable `v`.
    pub fn evaluate<F: Fn(VarId) -> bool>(&self, b: Bdd, assignment: F) -> bool {
        let inner = self.store.lock();
        let mut cur = b;
        while !cur.is_terminal() {
            let n = inner.node(cur);
            cur = if assignment(n.var) { n.high } else { n.low };
        }
        cur == Bdd::TRUE
    }

    /// Returns `true` iff the function is satisfiable (not constant false).
    ///
    /// For provenance this is the *derivability test*: the tuple is derivable
    /// from some combination of trusted base tuples iff its absorption
    /// provenance is satisfiable.
    pub fn is_satisfiable(&self, b: Bdd) -> bool {
        b != Bdd::FALSE
    }

    /// Returns `true` iff `a` logically implies `b`.
    pub fn implies(&mut self, a: Bdd, b: Bdd) -> bool {
        let mut inner = self.store.lock();
        let nb = inner.not(b);
        inner.apply(Op::And, a, nb) == Bdd::FALSE
    }

    /// The set of variables the function actually depends on.
    ///
    /// Absorption can make a function independent of variables that appear in
    /// the original polynomial — e.g. `a + a·b` does not depend on `b`.
    pub fn support(&self, b: Bdd) -> Vec<VarId> {
        let inner = self.store.lock();
        let mut seen = std::collections::BTreeSet::new();
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![b];
        while let Some(cur) = stack.pop() {
            if cur.is_terminal() || !visited.insert(cur) {
                continue;
            }
            let n = inner.node(cur);
            seen.insert(n.var);
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.into_iter().collect()
    }

    /// Number of nodes reachable from `b` (including terminals).
    pub fn reachable_node_count(&self, b: Bdd) -> usize {
        let inner = self.store.lock();
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![b];
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            if cur.is_terminal() {
                continue;
            }
            let n = inner.node(cur);
            stack.push(n.low);
            stack.push(n.high);
        }
        visited.len()
    }

    /// Number of non-terminal nodes reachable from `b` (cached on the root
    /// node after the first call).
    pub fn reachable_internal_count(&self, b: Bdd) -> usize {
        self.store.lock().reachable_internal_count(b)
    }

    /// Estimated number of bytes needed to ship this BDD over the network:
    /// each non-terminal node serializes its variable id and two child
    /// references (4 + 4 + 4 bytes), plus a 4-byte root reference.  This is
    /// the flat model every existing figure is built on; it depends only on
    /// the reachable structure, never on node ids.  O(1) after the first
    /// call for a root: the count is cached on the root node.
    pub fn serialized_size(&self, b: Bdd) -> usize {
        4 + self.store.lock().reachable_internal_count(b) * 12
    }

    /// Number of bytes this BDD costs under the compressed wire model:
    /// nodes numbered in deterministic structural postorder, variable ids
    /// and child references encoded as varints.  Like
    /// [`BddManager::serialized_size`] it is a pure function of the
    /// reachable structure, so compressed byte counts are identical at any
    /// shard count.
    pub fn compressed_serialized_size(&self, b: Bdd) -> usize {
        self.store.lock().compressed_serialized_size(b)
    }

    /// Counts satisfying assignments over variables `0..num_vars`.
    ///
    /// `None` if the count does not fit in a `u64` (provenance BDDs range
    /// over thousands of base tuples, so `num_vars ≥ 64` is routine) or if
    /// `b` depends on a variable `≥ num_vars`.
    pub fn sat_count(&self, b: Bdd, num_vars: u32) -> Option<u64> {
        /// `x · 2^shift`, or `None` if a set bit would be shifted out.
        fn scaled(x: u64, shift: u32) -> Option<u64> {
            if x == 0 {
                Some(0)
            } else if shift < 64 && x.leading_zeros() >= shift {
                Some(x << shift)
            } else {
                None
            }
        }
        fn go(
            inner: &StoreInner,
            b: Bdd,
            num_vars: u32,
            memo: &mut HashMap<Bdd, u64>,
        ) -> Option<(u64, u32)> {
            // Returns (count below this node assuming node's var is the next
            // unassigned one, var index of this node or num_vars for terminals).
            if b == Bdd::FALSE {
                return Some((0, num_vars));
            }
            if b == Bdd::TRUE {
                return Some((1, num_vars));
            }
            let n = inner.node(b);
            if let Some(&c) = memo.get(&b) {
                return Some((c, n.var));
            }
            let (cl, vl) = go(inner, n.low, num_vars, memo)?;
            let (ch, vh) = go(inner, n.high, num_vars, memo)?;
            let low = scaled(cl, vl.checked_sub(n.var + 1)?)?;
            let high = scaled(ch, vh.checked_sub(n.var + 1)?)?;
            let total = low.checked_add(high)?;
            memo.insert(b, total);
            Some((total, n.var))
        }
        let inner = self.store.lock();
        let mut memo = HashMap::new();
        let (c, v) = go(&inner, b, num_vars, &mut memo)?;
        scaled(c, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A manager over an isolated store, for tests that assert allocation
    /// or memo behavior (the global store is shared with parallel tests).
    fn isolated() -> BddManager {
        BddManager::with_store(SharedBddStore::new())
    }

    #[test]
    fn constants_and_terminals() {
        let m = isolated();
        assert!(Bdd::TRUE.is_terminal());
        assert!(Bdd::FALSE.is_terminal());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn identities() {
        let mut m = BddManager::new();
        let a = m.var(0);
        assert_eq!(m.and(a, Bdd::TRUE), a);
        assert_eq!(m.and(a, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(a, Bdd::FALSE), a);
        assert_eq!(m.or(a, Bdd::TRUE), Bdd::TRUE);
        assert_eq!(m.and(a, a), a);
        assert_eq!(m.or(a, a), a);
    }

    #[test]
    fn negation_involution_and_excluded_middle() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = {
            let ab = m.and(a, b);
            let nb = m.not(b);
            m.or(ab, nb)
        };
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
        assert_eq!(m.or(f, nf), Bdd::TRUE);
        assert_eq!(m.and(f, nf), Bdd::FALSE);
    }

    #[test]
    fn absorption_paper_example() {
        // The paper's example: a · (a + b) = a, and a + a·b = a.
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let a_plus_b = m.or(a, b);
        assert_eq!(m.and(a, a_plus_b), a);
        let ab = m.and(a, b);
        assert_eq!(m.or(a, ab), a);
        // Support shows b is no longer relevant.
        let f = m.or(a, ab);
        assert_eq!(m.support(f), vec![0]);
    }

    #[test]
    fn canonical_handles_mean_semantic_equality() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        // (a+b)·c == a·c + b·c  (distributivity).
        let left = {
            let ab = m.or(a, b);
            m.and(ab, c)
        };
        let right = {
            let ac = m.and(a, c);
            let bc = m.and(b, c);
            m.or(ac, bc)
        };
        assert_eq!(left, right);
    }

    #[test]
    fn handles_are_deterministic_across_stores_and_build_order() {
        // Content-keyed ids: the same function gets the same handle no
        // matter which store builds it or in what operation order.
        let mut m1 = isolated();
        let mut m2 = isolated();
        let f1 = {
            let a = m1.var(0);
            let b = m1.var(1);
            m1.and(a, b)
        };
        let f2 = {
            let b = m2.var(1);
            let a = m2.var(0);
            m2.and(b, a)
        };
        assert_eq!(f1.index(), f2.index());
        assert!(!f1.is_terminal());
    }

    #[test]
    fn restrict_and_evaluate() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), Bdd::FALSE);
        assert_eq!(m.restrict(f, 5, true), f); // untouched variable
        assert!(m.evaluate(f, |_| true));
        assert!(!m.evaluate(f, |v| v == 0));
    }

    #[test]
    fn implication_and_satisfiability() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert!(m.implies(ab, a));
        assert!(!m.implies(a, ab));
        assert!(m.is_satisfiable(ab));
        let na = m.not(a);
        let contradiction = m.and(a, na);
        assert!(!m.is_satisfiable(contradiction));
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let or = m.or(a, b);
        let and = m.and(a, b);
        assert_eq!(m.sat_count(or, 2), Some(3));
        assert_eq!(m.sat_count(and, 2), Some(1));
        assert_eq!(m.sat_count(Bdd::TRUE, 2), Some(4));
        assert_eq!(m.sat_count(Bdd::FALSE, 2), Some(0));
        assert_eq!(m.sat_count(a, 3), Some(4));
        // A variable outside the counted range has no defined count.
        assert_eq!(m.sat_count(a, 0), None);
    }

    #[test]
    fn sat_count_over_seventy_variables_reports_overflow() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..70).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.iter().copied());
        assert_eq!(m.sat_count(all, 70), Some(1));
        // 2^63 still fits; 2^64 and beyond do not.
        let first7 = m.and_all(vars[..7].iter().copied());
        assert_eq!(m.sat_count(first7, 70), Some(1 << 63));
        let first6 = m.and_all(vars[..6].iter().copied());
        assert_eq!(m.sat_count(first6, 70), None);
        assert_eq!(m.sat_count(vars[69], 70), None);
        assert_eq!(m.sat_count(Bdd::TRUE, 70), None);
        assert_eq!(m.sat_count(Bdd::FALSE, 70), Some(0));
        // Skipped variables below a deep node scale the count: x0 ∧ x69
        // leaves 68 free variables, 2^68 assignments.
        let ends = m.and(vars[0], vars[69]);
        assert_eq!(m.sat_count(ends, 70), None);
        let tail = m.and_all(vars[8..70].iter().copied());
        assert_eq!(m.sat_count(tail, 70), Some(1 << 8));
    }

    #[test]
    fn serialized_size_grows_with_structure() {
        let mut m = BddManager::new();
        let a = m.var(0);
        assert_eq!(m.serialized_size(Bdd::TRUE), 4);
        let single = m.serialized_size(a);
        let b = m.var(1);
        let c = m.var(2);
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        assert!(m.serialized_size(f) > single);
    }

    #[test]
    fn compressed_size_beats_flat_size_on_real_structure() {
        let mut m = BddManager::new();
        // Terminals: one varint byte vs the flat 4-byte root reference.
        assert_eq!(m.compressed_serialized_size(Bdd::TRUE), 1);
        assert_eq!(m.compressed_serialized_size(Bdd::FALSE), 1);
        // A chain conjunction over small variable ids: ~3 varint bytes per
        // node against the flat model's 12.
        let vars: Vec<Bdd> = (0..10).map(|i| m.var(i)).collect();
        let f = m.and_all(vars.iter().copied());
        let flat = m.serialized_size(f);
        let compressed = m.compressed_serialized_size(f);
        assert!(
            compressed * 2 < flat,
            "compressed {compressed} vs flat {flat}"
        );
        // Pure function of structure: recomputing gives the same answer.
        assert_eq!(m.compressed_serialized_size(f), compressed);
    }

    #[test]
    fn and_or_all_fold() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.iter().copied());
        assert!(m.evaluate(all, |_| true));
        assert!(!m.evaluate(all, |v| v != 2));
        let any = m.or_all(vars.iter().copied());
        assert!(m.evaluate(any, |v| v == 3));
        assert!(!m.evaluate(any, |_| false));
        assert_eq!(m.and_all(std::iter::empty()), Bdd::TRUE);
        assert_eq!(m.or_all(std::iter::empty()), Bdd::FALSE);
    }

    #[test]
    fn support_of_constant_is_empty() {
        let m = BddManager::new();
        assert!(m.support(Bdd::TRUE).is_empty());
        assert!(m.support(Bdd::FALSE).is_empty());
    }

    #[test]
    fn managers_share_the_store() {
        let store = SharedBddStore::new();
        let mut m1 = BddManager::with_store(store.clone());
        let mut m2 = BddManager::with_store(store.clone());
        let before = store.node_count();
        let a1 = m1.var(7);
        let after_first = store.node_count();
        let a2 = m2.var(7);
        // The second manager's identical literal allocates nothing.
        assert_eq!(a1, a2);
        assert_eq!(store.node_count(), after_first);
        assert_eq!(after_first, before + 1);
        // Handles interchange between managers on the same store.
        let b = m1.var(8);
        let ab = m2.and(a1, b);
        assert!(m1.evaluate(ab, |_| true));
    }

    /// One step of a random build: combine earlier functions (indices
    /// taken modulo the functions built so far).
    #[derive(Debug, Clone, Copy)]
    enum Step {
        And(usize, usize),
        Or(usize, usize),
        Not(usize),
        Restrict(usize, VarId, bool),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::And(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Or(a, b)),
            any::<usize>().prop_map(Step::Not),
            (any::<usize>(), 0..8u32, any::<bool>()).prop_map(|(a, v, x)| Step::Restrict(a, v, x)),
        ]
    }

    /// Builds function `i` of the sequence (`0..8` are the variables, then
    /// one per step) bottom-up, memoized in `built`.  `swap` flips the
    /// operands of every commutative step, so a second store reaches the
    /// same functions through different apply calls.
    fn build(
        m: &mut BddManager,
        steps: &[Step],
        i: usize,
        swap: bool,
        built: &mut HashMap<usize, Bdd>,
    ) -> Bdd {
        if let Some(&b) = built.get(&i) {
            return b;
        }
        let b = if i < 8 {
            m.var(i as VarId)
        } else {
            let arg = |x: usize| x % i;
            match steps[i - 8] {
                Step::And(x, y) | Step::Or(x, y) => {
                    let (x, y) = if swap {
                        (arg(y), arg(x))
                    } else {
                        (arg(x), arg(y))
                    };
                    let a = build(m, steps, x, swap, built);
                    let c = build(m, steps, y, swap, built);
                    if matches!(steps[i - 8], Step::And(..)) {
                        m.and(a, c)
                    } else {
                        m.or(a, c)
                    }
                }
                Step::Not(x) => {
                    let a = build(m, steps, arg(x), swap, built);
                    m.not(a)
                }
                Step::Restrict(x, v, val) => {
                    let a = build(m, steps, arg(x), swap, built);
                    m.restrict(a, v, val)
                }
            }
        };
        built.insert(i, b);
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The count cached on a root always equals a fresh reachable walk,
        /// however the root was reached and however often it is sized; and
        /// a second isolated store building the same functions in reverse
        /// order with swapped operands yields identical handles and sizes.
        #[test]
        fn cached_sizes_match_an_uncached_walk_and_handles_match_across_orders(
            steps in proptest::collection::vec(arb_step(), 1..40),
        ) {
            let mut m1 = isolated();
            let n = 8 + steps.len();
            let mut first = HashMap::new();
            for i in 0..n {
                let b = build(&mut m1, &steps, i, false, &mut first);
                let walked = m1.store.lock().walk_internal_count(b);
                prop_assert_eq!(m1.serialized_size(b), 4 + 12 * walked);
                prop_assert_eq!(m1.reachable_internal_count(b), walked);
            }
            // Re-size every root once more: all now come from the cache.
            for i in 0..n {
                let b = first[&i];
                let walked = m1.store.lock().walk_internal_count(b);
                prop_assert_eq!(m1.serialized_size(b), 4 + 12 * walked);
            }

            let mut m2 = isolated();
            let mut second = HashMap::new();
            for i in (0..n).rev() {
                let b = build(&mut m2, &steps, i, true, &mut second);
                prop_assert_eq!(b, first[&i]);
                prop_assert_eq!(m2.serialized_size(b), m1.serialized_size(b));
            }
        }
    }

    #[test]
    fn apply_memo_is_bounded_and_nodes_reach_steady_state() {
        let mut m = isolated();
        // One churn round: tens of thousands of distinct pairwise
        // conjunctions — far more apply keys than MEMO_CAPACITY.
        let churn = |m: &mut BddManager| {
            // Coprime moduli: the pair (i % 509, i % 512) is distinct for
            // every i below 509·512, giving ~80k distinct apply keys.
            for i in 0..40_000u32 {
                let a = m.var(i % 509);
                let b = m.var(i % 512);
                let f = m.and(a, b);
                assert_eq!(m.and(a, b), f); // immediate repeat: memo hit
                let _ = m.or(a, b);
            }
        };
        churn(&mut m);
        let after_first = m.node_count();
        let stats_first = m.memo_stats();
        assert!(
            stats_first.entries <= MEMO_CAPACITY,
            "memo grew past its bound: {}",
            stats_first.entries
        );
        // Long churn: repeat the identical workload.  Interning means no new
        // nodes; the bounded memo means no unbounded table either — the
        // regression the old per-manager apply cache had.
        for _ in 0..3 {
            churn(&mut m);
        }
        let stats = m.memo_stats();
        assert_eq!(m.node_count(), after_first, "repeat workload allocated");
        assert!(stats.entries <= MEMO_CAPACITY);
        assert!(stats.clears >= 1, "expected at least one epoch clear");
        assert!(stats.hits > 0);
    }
}
