//! The Firewall Decision Diagram data structure (paper §2).
//!
//! An FDD over fields `F1 … Fd` is a rooted acyclic diagram whose
//! nonterminal nodes are labelled with fields, whose terminal nodes are
//! labelled with decisions, and whose edges carry non-empty value sets
//! satisfying *consistency* (sibling edge labels are disjoint) and
//! *completeness* (sibling edge labels union to the field's domain).
//!
//! [`Fdd`] stores nodes in an arena indexed by [`NodeId`]. Freshly
//! constructed diagrams are trees (the paper's construction copies subgraphs
//! whenever it splits an edge); [`crate::reduce`] turns a tree into the
//! canonical rooted DAG, and [`crate::simplify`] re-expands any diagram into
//! the *simple* tree form shaping requires.

use std::collections::HashMap;
use std::fmt;

use fw_model::{Decision, FieldId, Interval, IntervalSet, Packet, Predicate, Schema};
use serde::{Deserialize, Serialize};

use crate::CoreError;

/// Index of a node in an [`Fdd`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A labelled edge `u → v` of an FDD.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    pub(crate) label: IntervalSet,
    pub(crate) target: NodeId,
}

impl Edge {
    /// The edge's value-set label `I(e)`.
    pub fn label(&self) -> &IntervalSet {
        &self.label
    }

    /// The node the edge points to (`e.t` in the paper's notation).
    pub fn target(&self) -> NodeId {
        self.target
    }
}

/// A node of an [`Fdd`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Node {
    Terminal(Decision),
    Internal { field: FieldId, edges: Vec<Edge> },
}

/// Read-only view of a node, returned by [`Fdd::view`].
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a> {
    /// A terminal node labelled with a decision.
    Terminal(Decision),
    /// A nonterminal node labelled with a field, with its outgoing edges.
    Internal {
        /// The field label `F(v)`.
        field: FieldId,
        /// The outgoing edges `E(v)`.
        edges: &'a [Edge],
    },
}

/// A Firewall Decision Diagram over a fixed [`Schema`].
///
/// # Example
///
/// Convert a policy to an FDD and evaluate a packet through it:
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::Fdd;
/// use fw_model::{paper, Decision, Packet};
///
/// let fdd = Fdd::from_firewall(&paper::team_a())?;
/// let p = Packet::new(vec![0, 1, paper::MAIL_SERVER, 25, paper::TCP]);
/// assert_eq!(fdd.decision_for(&p), Some(Decision::Accept));
/// fdd.validate()?; // consistency, completeness, orderedness
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fdd {
    schema: Schema,
    nodes: Vec<Node>,
    root: NodeId,
}

impl Fdd {
    // ------------------------------------------------------------------
    // Arena plumbing (crate-internal write access; the algorithm modules
    // maintain the FDD invariants themselves).
    // ------------------------------------------------------------------

    pub(crate) fn empty(schema: Schema) -> Fdd {
        Fdd {
            schema,
            nodes: Vec::new(),
            root: NodeId(0),
        }
    }

    pub(crate) fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("arena exceeds u32 indices"));
        self.nodes.push(node);
        id
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    pub(crate) fn set_root(&mut self, id: NodeId) {
        self.root = id;
    }

    /// Deep-copies the subgraph rooted at `id`, returning the copy's root.
    /// This is the paper's *subgraph replication* primitive (§4).
    pub(crate) fn deep_copy(&mut self, id: NodeId) -> NodeId {
        match self.node(id).clone() {
            Node::Terminal(d) => self.push(Node::Terminal(d)),
            Node::Internal { field, edges } => {
                let copied: Vec<Edge> = edges
                    .into_iter()
                    .map(|e| Edge {
                        label: e.label,
                        target: self.deep_copy(e.target),
                    })
                    .collect();
                self.push(Node::Internal {
                    field,
                    edges: copied,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Read API
    // ------------------------------------------------------------------

    /// The schema the diagram's fields range over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// A read-only view of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this diagram.
    pub fn view(&self, id: NodeId) -> NodeView<'_> {
        match &self.nodes[id.index()] {
            Node::Terminal(d) => NodeView::Terminal(*d),
            Node::Internal { field, edges } => NodeView::Internal {
                field: *field,
                edges,
            },
        }
    }

    /// Whether node `id` is a terminal.
    pub fn is_terminal(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()], Node::Terminal(_))
    }

    /// The decision of terminal `id`, or `None` for internal nodes.
    pub fn terminal_decision(&self, id: NodeId) -> Option<Decision> {
        match &self.nodes[id.index()] {
            Node::Terminal(d) => Some(*d),
            Node::Internal { .. } => None,
        }
    }

    /// Overwrites the decision of terminal `id` — the FDD-correction
    /// primitive of the resolution phase (§6.1, Method 1, Step 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invariant`] if `id` is not a terminal.
    pub fn set_terminal_decision(&mut self, id: NodeId, d: Decision) -> Result<(), CoreError> {
        match self.node_mut(id) {
            Node::Terminal(old) => {
                *old = d;
                Ok(())
            }
            Node::Internal { .. } => {
                Err(CoreError::Invariant(format!("{id} is not a terminal node")))
            }
        }
    }

    /// Overwrites the decision of every terminal whose decision path is
    /// contained in `region` — the FDD-correction step of the resolution
    /// phase (§6.1, Method 1, Step 1) applied to a whole disputed region.
    ///
    /// Returns the number of terminals changed. The region must align with
    /// the diagram's paths: for a shaped diagram and a region produced by
    /// the comparison algorithm this always holds, and any leftover partial
    /// overlap is reported as an error rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotSimple`] if the diagram is not a tree (a
    /// shared terminal cannot be overwritten for one path only), and
    /// [`CoreError::Invariant`] if some path partially overlaps `region`.
    pub fn overwrite_region(
        &mut self,
        region: &Predicate,
        d: Decision,
    ) -> Result<usize, CoreError> {
        if !self.is_tree() {
            return Err(CoreError::NotSimple);
        }
        fn rec(
            fdd: &mut Fdd,
            id: NodeId,
            pred: &mut Predicate,
            region: &Predicate,
            d: Decision,
            changed: &mut usize,
        ) -> Result<(), CoreError> {
            match fdd.node(id).clone() {
                Node::Terminal(_) => {
                    if pred.is_subset_of(region) {
                        fdd.set_terminal_decision(id, d)?;
                        *changed += 1;
                        Ok(())
                    } else if pred.intersect(region).is_some() {
                        Err(CoreError::Invariant(format!(
                            "path at {id} partially overlaps the correction region"
                        )))
                    } else {
                        Ok(())
                    }
                }
                Node::Internal { field, edges } => {
                    let saved = pred.set(field).clone();
                    for e in edges {
                        // Prune subtrees disjoint from the region.
                        if !e.label.intersects(region.set(field)) {
                            continue;
                        }
                        *pred = pred
                            .with_field(field, e.label.clone())
                            .expect("edge labels are non-empty by invariant");
                        rec(fdd, e.target, pred, region, d, changed)?;
                    }
                    *pred = pred
                        .with_field(field, saved)
                        .expect("saved set is non-empty");
                    Ok(())
                }
            }
        }
        let mut changed = 0;
        let mut pred = Predicate::any(&self.schema.clone());
        let root = self.root;
        rec(self, root, &mut pred, region, d, &mut changed)?;
        Ok(changed)
    }

    /// Number of nodes *reachable from the root* (transformations may leave
    /// unreachable arena slots behind; see [`Fdd::compact`]).
    pub fn node_count(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            count += 1;
            if let Node::Internal { edges, .. } = self.node(id) {
                stack.extend(edges.iter().map(|e| e.target));
            }
        }
        count
    }

    /// Total arena slots, including unreachable garbage.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of root-to-terminal decision paths, saturating at `u128::MAX`.
    ///
    /// Theorem 1 bounds this by `(2n − 1)^d` for an FDD constructed from
    /// `n` simple rules over `d` fields.
    pub fn path_count(&self) -> u128 {
        fn rec(fdd: &Fdd, id: NodeId, memo: &mut HashMap<NodeId, u128>) -> u128 {
            if let Some(&c) = memo.get(&id) {
                return c;
            }
            let c = match fdd.node(id) {
                Node::Terminal(_) => 1,
                Node::Internal { edges, .. } => edges
                    .iter()
                    .fold(0u128, |acc, e| acc.saturating_add(rec(fdd, e.target, memo))),
            };
            memo.insert(id, c);
            c
        }
        rec(self, self.root, &mut HashMap::new())
    }

    /// Maximum number of edges on any root-to-terminal path.
    pub fn depth(&self) -> usize {
        fn rec(fdd: &Fdd, id: NodeId, memo: &mut HashMap<NodeId, usize>) -> usize {
            if let Some(&d) = memo.get(&id) {
                return d;
            }
            let d = match fdd.node(id) {
                Node::Terminal(_) => 0,
                Node::Internal { edges, .. } => {
                    1 + edges
                        .iter()
                        .map(|e| rec(fdd, e.target, memo))
                        .max()
                        .unwrap_or(0)
                }
            };
            memo.insert(id, d);
            d
        }
        rec(self, self.root, &mut HashMap::new())
    }

    /// Whether every reachable node has exactly one parent (the diagram is
    /// an outgoing directed tree), a precondition of shaping.
    pub fn is_tree(&self) -> bool {
        let mut indegree: HashMap<NodeId, usize> = HashMap::new();
        let mut stack = vec![self.root];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            if let Node::Internal { edges, .. } = self.node(id) {
                for e in edges {
                    *indegree.entry(e.target).or_insert(0) += 1;
                    stack.push(e.target);
                }
            }
        }
        indegree.values().all(|&d| d == 1)
    }

    /// Whether every edge label is a single interval and the diagram is a
    /// tree — the *simple FDD* form of Definition 4.3.
    pub fn is_simple(&self) -> bool {
        if !self.is_tree() {
            return false;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if let Node::Internal { edges, .. } = self.node(id) {
                for e in edges {
                    if e.label.as_single_interval().is_none() {
                        return false;
                    }
                    stack.push(e.target);
                }
            }
        }
        true
    }

    /// First-match-free evaluation: follows the unique consistent edge for
    /// each field. Returns `None` if the packet has the wrong arity, a value
    /// escapes every edge label (only possible for an invalid diagram), or a
    /// label field index is out of packet range.
    pub fn decision_for(&self, packet: &Packet) -> Option<Decision> {
        if packet.len() != self.schema.len() {
            return None;
        }
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Terminal(d) => return Some(*d),
                Node::Internal { field, edges } => {
                    let v = packet.get(*field)?;
                    let e = edges.iter().find(|e| e.label.contains(v))?;
                    id = e.target;
                }
            }
        }
    }

    /// Plain FDD-walk evaluation: the mid-tier of the three-way execution
    /// oracle (linear scan → FDD walk → compiled matcher). Identical to
    /// [`Fdd::decision_for`] but infallible, for validated packets over this
    /// diagram's schema.
    ///
    /// # Panics
    ///
    /// Panics if the packet's arity differs from the schema or a value
    /// escapes every edge label (only possible for an invalid diagram or an
    /// out-of-domain packet — call [`Packet::validate`] first).
    pub fn evaluate(&self, packet: &Packet) -> Decision {
        assert_eq!(
            packet.len(),
            self.schema.len(),
            "packet arity {} does not match schema arity {}",
            packet.len(),
            self.schema.len()
        );
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Terminal(d) => return *d,
                Node::Internal { field, edges } => {
                    let v = packet.value(*field);
                    let e = edges
                        .iter()
                        .find(|e| e.label.contains(v))
                        .unwrap_or_else(|| {
                            panic!("value {v} of {field} escapes every edge label at {id}")
                        });
                    id = e.target;
                }
            }
        }
    }

    /// [`Fdd::evaluate`] over a bare value slice in schema order, without
    /// the [`Packet`] wrapper — lets batch engines replay a column layout
    /// through the walk by gathering one packet's values into a reused
    /// buffer instead of materialising row packets.
    ///
    /// # Panics
    ///
    /// As for [`Fdd::evaluate`].
    pub fn evaluate_values(&self, values: &[u64]) -> Decision {
        assert_eq!(
            values.len(),
            self.schema.len(),
            "value arity {} does not match schema arity {}",
            values.len(),
            self.schema.len()
        );
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Terminal(d) => return *d,
                Node::Internal { field, edges } => {
                    let v = values[field.index()];
                    let e = edges
                        .iter()
                        .find(|e| e.label.contains(v))
                        .unwrap_or_else(|| {
                            panic!("value {v} of {field} escapes every edge label at {id}")
                        });
                    id = e.target;
                }
            }
        }
    }

    /// Visits every decision path as `(predicate, decision)`; fields absent
    /// from a path are reported as their full domains, exactly as the paper
    /// defines the rule of a decision path (§2).
    pub fn for_each_path<F>(&self, mut f: F)
    where
        F: FnMut(&Predicate, Decision),
    {
        let mut pred = Predicate::any(&self.schema);
        self.walk(self.root, &mut pred, &mut f);
    }

    fn walk<F>(&self, id: NodeId, pred: &mut Predicate, f: &mut F)
    where
        F: FnMut(&Predicate, Decision),
    {
        match self.node(id) {
            Node::Terminal(d) => f(pred, *d),
            Node::Internal { field, edges } => {
                let field = *field;
                let saved = pred.set(field).clone();
                for e in edges.clone() {
                    *pred = pred
                        .with_field(field, e.label.clone())
                        .expect("edge labels are non-empty by invariant");
                    self.walk(e.target, pred, f);
                }
                *pred = pred
                    .with_field(field, saved)
                    .expect("saved set is non-empty");
            }
        }
    }

    /// All decision-path rules as a vector — `f.rules` in the paper's
    /// notation. Convenient for tests; prefer [`Fdd::for_each_path`] for
    /// large diagrams.
    pub fn paths(&self) -> Vec<(Predicate, Decision)> {
        let mut out = Vec::new();
        self.for_each_path(|p, d| out.push((p.clone(), d)));
        out
    }

    /// Rebuilds the arena keeping only nodes reachable from the root.
    /// Transformation passes call this to drop replicated garbage.
    pub fn compact(&mut self) {
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        fn rec(
            old: &Fdd,
            id: NodeId,
            nodes: &mut Vec<Node>,
            map: &mut HashMap<NodeId, NodeId>,
        ) -> NodeId {
            if let Some(&n) = map.get(&id) {
                return n;
            }
            let node = match old.node(id) {
                Node::Terminal(d) => Node::Terminal(*d),
                Node::Internal { field, edges } => {
                    let edges = edges
                        .clone()
                        .into_iter()
                        .map(|e| Edge {
                            label: e.label,
                            target: rec(old, e.target, nodes, map),
                        })
                        .collect();
                    Node::Internal {
                        field: *field,
                        edges,
                    }
                }
            };
            let new_id = NodeId(u32::try_from(nodes.len()).expect("arena exceeds u32 indices"));
            nodes.push(node);
            map.insert(id, new_id);
            new_id
        }
        let root = rec(self, self.root, &mut nodes, &mut map);
        self.nodes = nodes;
        self.root = root;
    }

    /// Checks every FDD invariant of §2's definition:
    ///
    /// 1. the root exists and every edge target is in range;
    /// 2. the diagram is acyclic;
    /// 3. edge labels are non-empty subsets of the source field's domain
    ///    (property 3);
    /// 4. no two nodes on a decision path share a label, and labels follow
    ///    the schema order (ordered FDD, Definition 4.1);
    /// 5. sibling labels are pairwise disjoint (*consistency*) and union to
    ///    the whole domain (*completeness*, property 5).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invariant`] describing the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.validate_inner(true)
    }

    /// Like [`Fdd::validate`] but skips the completeness check — a *partial*
    /// FDD (§3.2) satisfies everything except completeness.
    pub fn validate_partial(&self) -> Result<(), CoreError> {
        self.validate_inner(false)
    }

    fn validate_inner(&self, completeness: bool) -> Result<(), CoreError> {
        if self.nodes.is_empty() {
            return Err(CoreError::Invariant("diagram has no nodes".to_owned()));
        }
        if self.root.index() >= self.nodes.len() {
            return Err(CoreError::Invariant(format!(
                "root {} out of range",
                self.root
            )));
        }
        // Iterative DFS with explicit path for order/cycle checks.
        enum Step {
            Enter(NodeId, Option<usize>), // node, field index of parent label
            Leave,
        }
        let mut stack = vec![Step::Enter(self.root, None)];
        let mut on_path: Vec<usize> = Vec::new(); // field indices on current path
        while let Some(step) = stack.pop() {
            match step {
                Step::Leave => {
                    on_path.pop();
                }
                Step::Enter(id, parent_field) => {
                    if id.index() >= self.nodes.len() {
                        return Err(CoreError::Invariant(format!(
                            "edge target {id} out of range"
                        )));
                    }
                    match self.node(id) {
                        Node::Terminal(_) => {}
                        Node::Internal { field, edges } => {
                            let fidx = field.index();
                            let fd = self.schema.get(*field).ok_or_else(|| {
                                CoreError::Invariant(format!("{id} labelled with unknown {field}"))
                            })?;
                            if on_path.contains(&fidx) {
                                return Err(CoreError::Invariant(format!(
                                    "field {field} repeats on a decision path at {id}"
                                )));
                            }
                            if let Some(pf) = parent_field {
                                if fidx <= pf {
                                    return Err(CoreError::Invariant(format!(
                                        "labels out of order: F{} before {field} at {id}",
                                        pf + 1
                                    )));
                                }
                            }
                            if edges.is_empty() {
                                return Err(CoreError::Invariant(format!("{id} has no edges")));
                            }
                            let domain = fd.domain();
                            let mut union = IntervalSet::empty();
                            for e in edges {
                                if e.label.is_empty() {
                                    return Err(CoreError::Invariant(format!(
                                        "empty edge label at {id}"
                                    )));
                                }
                                if !e.label.is_subset_of(&IntervalSet::from_interval(domain)) {
                                    return Err(CoreError::Invariant(format!(
                                        "edge label {} escapes domain of {} at {id}",
                                        e.label,
                                        fd.name()
                                    )));
                                }
                                if union.intersects(&e.label) {
                                    return Err(CoreError::Invariant(format!(
                                        "consistency violated at {id}: overlapping sibling labels"
                                    )));
                                }
                                union = union.union(&e.label);
                            }
                            if completeness && !union.covers(domain) {
                                return Err(CoreError::Invariant(format!(
                                    "completeness violated at {id}: {} of {} uncovered",
                                    union.complement(domain),
                                    fd.name()
                                )));
                            }
                            on_path.push(fidx);
                            stack.push(Step::Leave);
                            for e in edges {
                                stack.push(Step::Enter(e.target, Some(fidx)));
                            }
                        }
                    }
                }
            }
        }
        // Acyclicity: orderedness (strictly increasing field indices along
        // every path) already rules out cycles among internal nodes, and
        // terminals have no out-edges, so nothing further to check.
        Ok(())
    }

    /// Builds an FDD that maps every packet to `d` — the one-terminal
    /// diagram.
    pub fn constant(schema: Schema, d: Decision) -> Fdd {
        let mut fdd = Fdd::empty(schema);
        let t = fdd.push(Node::Terminal(d));
        fdd.set_root(t);
        fdd
    }

    /// A packet region no path of the tree decides, or `None` if every
    /// node's edges cover its field's domain: the path from the root down
    /// to the first node found with a gap, then one value of the gap, in
    /// the `field=value, …` form of [`CoreError::NotComprehensive`]. Every
    /// packet of the region falls off the tree there, whatever its fields
    /// below. The literal constructor's partial diagrams are trees.
    pub(crate) fn uncovered_witness(&self) -> Option<String> {
        let mut path = Vec::new();
        self.gap_below(self.root, &mut path)
            .then(|| crate::error::spell_region(&self.schema, path))
    }

    // Depth is bounded by the schema's field count, so plain recursion is
    // safe here.
    fn gap_below(&self, id: NodeId, path: &mut Vec<(FieldId, u64)>) -> bool {
        let Node::Internal { field, edges } = self.node(id) else {
            return false;
        };
        let mut union = IntervalSet::empty();
        for e in edges {
            union = union.union(&e.label);
        }
        let domain = self.schema.field(*field).domain();
        if let Some(gap) = union.complement(domain).min_value() {
            path.push((*field, gap));
            return true;
        }
        for e in edges {
            path.push((*field, e.label.min_value().expect("labels are nonempty")));
            if self.gap_below(e.target, path) {
                return true;
            }
            path.pop();
        }
        false
    }
}

/// A checked builder for hand-authored FDDs — the *design in FDDs* workflow
/// of §7.2, where a team draws the diagram directly instead of writing a
/// rule sequence.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::FddBuilder;
/// use fw_model::{Decision, FieldId, Interval, IntervalSet, Schema};
///
/// let schema = Schema::paper_example();
/// let mut b = FddBuilder::new(schema.clone());
/// let acc = b.terminal(Decision::Accept);
/// let dis = b.terminal(Decision::Discard);
/// let root = b.internal(
///     FieldId(0),
///     vec![
///         (IntervalSet::from_value(0), dis),
///         (IntervalSet::from_value(1), acc),
///     ],
/// )?;
/// let fdd = b.finish(root)?;
/// assert_eq!(fdd.path_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FddBuilder {
    fdd: Fdd,
}

impl FddBuilder {
    /// Starts building an FDD over `schema`.
    pub fn new(schema: Schema) -> FddBuilder {
        FddBuilder {
            fdd: Fdd::empty(schema),
        }
    }

    /// Adds a terminal node.
    pub fn terminal(&mut self, d: Decision) -> NodeId {
        self.fdd.push(Node::Terminal(d))
    }

    /// Adds an internal node labelled `field` with the given `(label,
    /// target)` edges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invariant`] if an edge label is empty or a
    /// target is unknown; full validation happens in [`FddBuilder::finish`].
    pub fn internal(
        &mut self,
        field: FieldId,
        edges: Vec<(IntervalSet, NodeId)>,
    ) -> Result<NodeId, CoreError> {
        for (label, target) in &edges {
            if label.is_empty() {
                return Err(CoreError::Invariant(
                    "edge label must be non-empty".to_owned(),
                ));
            }
            if target.index() >= self.fdd.nodes.len() {
                return Err(CoreError::Invariant(format!("unknown target {target}")));
            }
        }
        let edges = edges
            .into_iter()
            .map(|(label, target)| Edge { label, target })
            .collect();
        Ok(self.fdd.push(Node::Internal { field, edges }))
    }

    /// Finishes the diagram with `root`, validating all FDD invariants.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invariant`] if the diagram violates
    /// consistency, completeness, orderedness or label domains.
    pub fn finish(mut self, root: NodeId) -> Result<Fdd, CoreError> {
        self.fdd.set_root(root);
        self.fdd.validate()?;
        self.fdd.compact();
        Ok(self.fdd)
    }
}

/// Convenience: a whole-domain label for `field` under `schema`.
pub fn domain_label(schema: &Schema, field: FieldId) -> IntervalSet {
    IntervalSet::from_interval(schema.field(field).domain())
}

/// Convenience: a single-interval label.
pub fn label(lo: u64, hi: u64) -> IntervalSet {
    IntervalSet::from_interval(Interval::new(lo, hi).expect("label bounds ordered"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::Schema;

    fn two_field_schema() -> Schema {
        Schema::new(vec![
            fw_model::FieldDef::new("x", 4).unwrap(),
            fw_model::FieldDef::new("y", 4).unwrap(),
        ])
        .unwrap()
    }

    fn tiny_fdd() -> Fdd {
        // x in [0,7] -> (y in [0,15] -> accept); x in [8,15] -> discard
        let schema = two_field_schema();
        let mut b = FddBuilder::new(schema);
        let acc = b.terminal(Decision::Accept);
        let dis = b.terminal(Decision::Discard);
        let y = b.internal(FieldId(1), vec![(label(0, 15), acc)]).unwrap();
        let root = b
            .internal(FieldId(0), vec![(label(0, 7), y), (label(8, 15), dis)])
            .unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn builder_validates_and_evaluates() {
        let fdd = tiny_fdd();
        assert_eq!(
            fdd.decision_for(&Packet::new(vec![3, 9])),
            Some(Decision::Accept)
        );
        assert_eq!(
            fdd.decision_for(&Packet::new(vec![12, 0])),
            Some(Decision::Discard)
        );
        assert_eq!(fdd.decision_for(&Packet::new(vec![12])), None);
        assert_eq!(fdd.path_count(), 2);
        assert_eq!(fdd.depth(), 2);
        assert!(fdd.is_tree());
        assert!(fdd.is_simple());
    }

    #[test]
    fn evaluate_matches_decision_for() {
        let fdd = tiny_fdd();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let p = Packet::new(vec![x, y]);
                assert_eq!(Some(fdd.evaluate(&p)), fdd.decision_for(&p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn evaluate_panics_on_arity_mismatch() {
        tiny_fdd().evaluate(&Packet::new(vec![1]));
    }

    #[test]
    fn builder_rejects_incomplete() {
        let schema = two_field_schema();
        let mut b = FddBuilder::new(schema);
        let acc = b.terminal(Decision::Accept);
        let root = b.internal(FieldId(0), vec![(label(0, 7), acc)]).unwrap();
        assert!(matches!(b.finish(root), Err(CoreError::Invariant(_))));
    }

    #[test]
    fn builder_rejects_overlapping_siblings() {
        let schema = two_field_schema();
        let mut b = FddBuilder::new(schema);
        let acc = b.terminal(Decision::Accept);
        let dis = b.terminal(Decision::Discard);
        let root = b
            .internal(FieldId(0), vec![(label(0, 9), acc), (label(5, 15), dis)])
            .unwrap();
        assert!(matches!(b.finish(root), Err(CoreError::Invariant(_))));
    }

    #[test]
    fn builder_rejects_out_of_order_fields() {
        let schema = two_field_schema();
        let mut b = FddBuilder::new(schema);
        let acc = b.terminal(Decision::Accept);
        let dis = b.terminal(Decision::Discard);
        let x = b.internal(FieldId(0), vec![(label(0, 15), acc)]).unwrap();
        let root = b
            .internal(FieldId(1), vec![(label(0, 7), x), (label(8, 15), dis)])
            .unwrap();
        assert!(matches!(b.finish(root), Err(CoreError::Invariant(_))));
    }

    #[test]
    fn paths_report_full_domains_for_missing_fields() {
        // Root tests y only; x is unconstrained on both paths.
        let schema = two_field_schema();
        let mut b = FddBuilder::new(schema.clone());
        let acc = b.terminal(Decision::Accept);
        let dis = b.terminal(Decision::Discard);
        let root = b
            .internal(FieldId(1), vec![(label(0, 7), acc), (label(8, 15), dis)])
            .unwrap();
        let fdd = b.finish(root).unwrap();
        let paths = fdd.paths();
        assert_eq!(paths.len(), 2);
        for (pred, _) in &paths {
            assert!(pred
                .set(FieldId(0))
                .covers(schema.field(FieldId(0)).domain()));
        }
    }

    #[test]
    fn set_terminal_decision_only_on_terminals() {
        let mut fdd = tiny_fdd();
        let root = fdd.root();
        assert!(fdd.set_terminal_decision(root, Decision::Accept).is_err());
        // Find a terminal and flip it.
        let t = match fdd.view(root) {
            NodeView::Internal { edges, .. } => edges[1].target(),
            _ => unreachable!(),
        };
        fdd.set_terminal_decision(t, Decision::AcceptLog).unwrap();
        assert_eq!(
            fdd.decision_for(&Packet::new(vec![12, 0])),
            Some(Decision::AcceptLog)
        );
    }

    #[test]
    fn deep_copy_is_structural() {
        let mut fdd = tiny_fdd();
        let copy = fdd.deep_copy(fdd.root());
        // Copy evaluates identically.
        let original_root = fdd.root();
        fdd.set_root(copy);
        assert_eq!(
            fdd.decision_for(&Packet::new(vec![3, 9])),
            Some(Decision::Accept)
        );
        fdd.set_root(original_root);
        // Arena grew but reachable count is unchanged.
        assert_eq!(fdd.node_count(), 4);
        assert!(fdd.arena_len() > 4);
        fdd.compact();
        assert_eq!(fdd.arena_len(), 4);
        fdd.validate().unwrap();
    }

    #[test]
    fn constant_fdd() {
        let fdd = Fdd::constant(two_field_schema(), Decision::DiscardLog);
        fdd.validate().unwrap();
        assert_eq!(fdd.path_count(), 1);
        assert_eq!(
            fdd.decision_for(&Packet::new(vec![0, 0])),
            Some(Decision::DiscardLog)
        );
    }

    #[test]
    fn validate_partial_allows_gaps() {
        let schema = two_field_schema();
        let mut b = FddBuilder::new(schema);
        let acc = b.terminal(Decision::Accept);
        let root = b.internal(FieldId(0), vec![(label(0, 7), acc)]).unwrap();
        // Bypass finish() to keep the partial diagram.
        let mut fdd = b.fdd;
        fdd.set_root(root);
        fdd.validate_partial().unwrap();
        assert!(fdd.validate().is_err());
        assert_eq!(fdd.uncovered_witness().as_deref(), Some("x=8"));
    }
}
