//! Graph traversal algorithms on top of a transaction's snapshot.
//!
//! These are the query-side operations the paper's introduction motivates:
//! multi-step graph algorithms whose consistency depends on the isolation
//! level. Under read committed a path observed in one step "might not exist
//! when trying to go through it later in the same transaction"; under
//! snapshot isolation every step sees the same snapshot.
//!
//! Since the streaming-query redesign, all of them are thin shims over the
//! [`Transaction::query`] expansion pipeline: each visited node is
//! expanded through the chunked, GC-safe cursors, so a traversal's memory
//! footprint is O(frontier) — the per-node sort that keeps visit orders
//! deterministic touches one node's neighbours at a time, never a whole
//! candidate list.

use std::collections::{HashMap, HashSet, VecDeque};

use graphsi_storage::NodeId;

use crate::entity::Direction;
use crate::error::Result;
use crate::transaction::Transaction;

/// One sorted expansion step through the streaming query pipeline: the
/// deduplicated neighbours of `node`, ascending. Memory is O(degree of
/// `node`), the frontier unit every traversal below works in.
fn expand_sorted(tx: &Transaction, node: NodeId, direction: Direction) -> Result<Vec<NodeId>> {
    let mut out = tx
        .query()
        .start_nodes([node])
        .expand(direction, None)
        .distinct()
        .ids()?;
    out.sort();
    Ok(out)
}

/// Breadth-first traversal from `start`, up to `max_depth` hops, returning
/// the visited nodes in visit order (including `start`).
pub fn bfs(tx: &Transaction, start: NodeId, max_depth: usize) -> Result<Vec<NodeId>> {
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut order = Vec::new();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    if !tx.node_exists(start)? {
        return Ok(order);
    }
    visited.insert(start);
    order.push(start);
    queue.push_back((start, 0));
    while let Some((node, depth)) = queue.pop_front() {
        if depth >= max_depth {
            continue;
        }
        // Sorted expansion keeps the visit order deterministic.
        for neighbor in expand_sorted(tx, node, Direction::Both)? {
            if visited.insert(neighbor) {
                order.push(neighbor);
                queue.push_back((neighbor, depth + 1));
            }
        }
    }
    Ok(order)
}

/// Depth-first traversal from `start`, up to `max_depth` hops, returning
/// the visited nodes in visit order.
pub fn dfs(tx: &Transaction, start: NodeId, max_depth: usize) -> Result<Vec<NodeId>> {
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut order = Vec::new();
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    if !tx.node_exists(start)? {
        return Ok(order);
    }
    stack.push((start, 0));
    while let Some((node, depth)) = stack.pop() {
        if !visited.insert(node) {
            continue;
        }
        order.push(node);
        if depth >= max_depth {
            continue;
        }
        let mut neighbors = expand_sorted(tx, node, Direction::Both)?;
        // Reverse so that the smallest-ID neighbour is visited first.
        neighbors.reverse();
        for neighbor in neighbors {
            if !visited.contains(&neighbor) {
                stack.push((neighbor, depth + 1));
            }
        }
    }
    Ok(order)
}

/// Unweighted shortest path between two nodes (sequence of node IDs,
/// including both endpoints), or `None` if no path exists within
/// `max_depth` hops.
pub fn shortest_path(
    tx: &Transaction,
    from: NodeId,
    to: NodeId,
    max_depth: usize,
) -> Result<Option<Vec<NodeId>>> {
    if !tx.node_exists(from)? || !tx.node_exists(to)? {
        return Ok(None);
    }
    if from == to {
        return Ok(Some(vec![from]));
    }
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    queue.push_back((from, 0));
    parent.insert(from, from);
    while let Some((node, depth)) = queue.pop_front() {
        if depth >= max_depth {
            continue;
        }
        for neighbor in expand_sorted(tx, node, Direction::Both)? {
            if parent.contains_key(&neighbor) {
                continue;
            }
            parent.insert(neighbor, node);
            if neighbor == to {
                // Reconstruct the path.
                let mut path = vec![to];
                let mut current = to;
                while current != from {
                    current = parent[&current];
                    path.push(current);
                }
                path.reverse();
                return Ok(Some(path));
            }
            queue.push_back((neighbor, depth + 1));
        }
    }
    Ok(None)
}

/// The two-step traversal of the paper's motivating example: collect the
/// neighbours of `start` (step one), then expand each of them again (step
/// two), returning the set of nodes at distance exactly two ("friends of
/// friends"). Under read committed the two steps may observe different
/// graphs.
pub fn friends_of_friends(tx: &Transaction, start: NodeId) -> Result<Vec<NodeId>> {
    // The first hop is consumed twice (membership + expansion), so it is
    // collected — it is exactly the frontier. The second hop streams
    // through the query pipeline; re-reading the frontier as a start set
    // re-checks each friend's visibility, which is where read committed
    // exhibits an unrepeatable read (a friend observed in step one may
    // have vanished by step two).
    let first_hop = tx
        .query()
        .start_nodes([start])
        .expand(Direction::Both, None)
        .distinct()
        .ids()?;
    let first_set: HashSet<NodeId> = first_hop.iter().copied().collect();
    let mut result: HashSet<NodeId> = HashSet::new();
    for fof in tx
        .query()
        .start_nodes(first_hop)
        .expand(Direction::Both, None)
        .stream()?
    {
        let fof = fof?;
        if fof != start && !first_set.contains(&fof) {
            result.insert(fof);
        }
    }
    let mut out: Vec<NodeId> = result.into_iter().collect();
    out.sort();
    Ok(out)
}

/// Walks the path `start -> ... -> end` twice and reports whether both
/// walks observed the same sequence of neighbour sets. Returns
/// `(consistent, first_walk, second_walk)`: an unrepeatable-read probe.
pub fn double_walk(
    tx: &Transaction,
    start: NodeId,
    depth: usize,
) -> Result<(bool, Vec<NodeId>, Vec<NodeId>)> {
    let first = bfs(tx, start, depth)?;
    let second = bfs(tx, start, depth)?;
    Ok((first == second, first, second))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use crate::db::GraphDb;
    use graphsi_storage::test_util::TempDir;

    /// Builds a path graph a0 - a1 - ... - a5 plus a disconnected island,
    /// returning (db guard dir, db, path nodes, island node).
    fn path_graph() -> (TempDir, GraphDb, Vec<NodeId>, NodeId) {
        let dir = TempDir::new("traversal");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.begin();
        let nodes: Vec<NodeId> = (0..6)
            .map(|_| tx.create_node(&["P"], &[]).unwrap())
            .collect();
        for pair in nodes.windows(2) {
            tx.create_relationship(pair[0], pair[1], "NEXT", &[])
                .unwrap();
        }
        let island = tx.create_node(&["Island"], &[]).unwrap();
        tx.commit().unwrap();
        (dir, db, nodes, island)
    }

    #[test]
    fn bfs_visits_by_distance_and_respects_depth() {
        let (_dir, db, nodes, _island) = path_graph();
        let tx = db.begin();
        let all = bfs(&tx, nodes[0], 10).unwrap();
        assert_eq!(all, nodes, "a path graph is visited in order");
        let limited = bfs(&tx, nodes[0], 2).unwrap();
        assert_eq!(limited, nodes[..3].to_vec());
        let from_middle = bfs(&tx, nodes[3], 1).unwrap();
        assert_eq!(from_middle.len(), 3);
    }

    #[test]
    fn bfs_of_missing_node_is_empty() {
        let (_dir, db, _nodes, _island) = path_graph();
        let tx = db.begin();
        assert!(bfs(&tx, NodeId::new(9999), 3).unwrap().is_empty());
        assert!(dfs(&tx, NodeId::new(9999), 3).unwrap().is_empty());
    }

    #[test]
    fn dfs_visits_every_reachable_node_once() {
        let (_dir, db, nodes, island) = path_graph();
        let tx = db.begin();
        let visited = dfs(&tx, nodes[0], 10).unwrap();
        assert_eq!(visited.len(), nodes.len());
        assert!(!visited.contains(&island));
        let mut dedup = visited.clone();
        dedup.dedup();
        assert_eq!(dedup, visited);
    }

    #[test]
    fn shortest_path_on_a_path_graph() {
        let (_dir, db, nodes, island) = path_graph();
        let tx = db.begin();
        let path = shortest_path(&tx, nodes[0], nodes[4], 10).unwrap().unwrap();
        assert_eq!(path, nodes[..5].to_vec());
        assert_eq!(
            shortest_path(&tx, nodes[2], nodes[2], 10).unwrap(),
            Some(vec![nodes[2]])
        );
        // Unreachable within the depth bound or at all.
        assert_eq!(shortest_path(&tx, nodes[0], nodes[5], 2).unwrap(), None);
        assert_eq!(shortest_path(&tx, nodes[0], island, 10).unwrap(), None);
    }

    #[test]
    fn shortest_path_prefers_the_shortcut() {
        let (_dir, db, nodes, _island) = path_graph();
        // Add a shortcut 0 -> 4.
        let mut tx = db.begin();
        tx.create_relationship(nodes[0], nodes[4], "NEXT", &[])
            .unwrap();
        tx.commit().unwrap();
        let tx = db.begin();
        let path = shortest_path(&tx, nodes[0], nodes[5], 10).unwrap().unwrap();
        assert_eq!(path, vec![nodes[0], nodes[4], nodes[5]]);
    }

    #[test]
    fn friends_of_friends_excludes_self_and_direct_friends() {
        let (_dir, db, nodes, _island) = path_graph();
        let tx = db.begin();
        // For the middle of a path, fof = the nodes two hops away.
        let fof = friends_of_friends(&tx, nodes[2]).unwrap();
        assert_eq!(fof, vec![nodes[0], nodes[4]]);
    }

    #[test]
    fn double_walk_is_consistent_within_a_snapshot() {
        let (_dir, db, nodes, _island) = path_graph();
        let tx = db.begin();
        let (consistent, first, second) = double_walk(&tx, nodes[0], 10).unwrap();
        assert!(consistent);
        assert_eq!(first, second);
    }

    #[test]
    fn traversal_sees_own_pending_edges() {
        let (_dir, db, nodes, island) = path_graph();
        let mut tx = db.begin();
        tx.create_relationship(nodes[5], island, "BRIDGE", &[])
            .unwrap();
        let walk = bfs(&tx, nodes[0], 10).unwrap();
        assert!(
            walk.contains(&island),
            "pending edge reachable by the writer"
        );
        drop(tx);
        let other = db.begin();
        let walk = bfs(&other, nodes[0], 10).unwrap();
        assert!(!walk.contains(&island), "rolled-back edge is gone");
    }
}
