//! Feature models and their translation to propositional constraints.

use crate::{FeatureExpr, FeatureId, FeatureTable};
use std::collections::BTreeSet;
use std::fmt;

/// How the children of a feature-group are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKind {
    /// OR group: if the parent is selected, at least one member must be.
    Or,
    /// Exclusive-OR (alternative) group: exactly one member if the parent is
    /// selected.
    Xor,
}

#[derive(Debug, Clone)]
struct ChildEdge {
    child: FeatureId,
    mandatory: bool,
}

#[derive(Debug, Clone)]
struct Group {
    parent: FeatureId,
    kind: GroupKind,
    members: Vec<FeatureId>,
}

/// Error from feature-model construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A feature was given two parents.
    DuplicateParent(FeatureId),
    /// A group needs at least two members.
    GroupTooSmall,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateParent(id) => {
                write!(f, "feature {id:?} already has a parent")
            }
            ModelError::GroupTooSmall => write!(f, "feature group needs at least two members"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A feature model: a tree of features plus cross-tree constraints.
///
/// Translated to a single propositional constraint following Batory
/// (SPLC 2005), as the paper describes in §4.1:
///
/// 1. a bi-implication between every *mandatory* feature and its parent,
/// 2. an implication from every *optional* feature to its parent,
/// 3. a bi-implication from the parent of every OR group to the disjunction
///    of its members,
/// 4. a bi-implication from the parent of every XOR group to (pairwise
///    mutual exclusion of members) ∧ (disjunction of members),
///
/// conjoined with the root feature itself and all cross-tree constraints.
///
/// # Example
///
/// ```
/// use spllift_features::{FeatureModel, FeatureTable};
///
/// let mut t = FeatureTable::new();
/// let root = t.intern("Root");
/// let f = t.intern("F");
/// let g = t.intern("G");
/// let mut model = FeatureModel::new(root);
/// model.add_optional(root, f)?;
/// model.add_optional(root, g)?;
/// // Cross-tree: F ↔ G (the paper's §1 example "F ≡ G").
/// model.add_constraint_str("(F && G) || (!F && !G)", &mut t)?;
/// let expr = model.to_expr();
/// // {Root, F, G} valid; {Root, F} invalid.
/// # use spllift_features::Configuration;
/// assert!(Configuration::from_enabled([root, f, g]).satisfies(&expr));
/// assert!(!Configuration::from_enabled([root, f]).satisfies(&expr));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FeatureModel {
    root: FeatureId,
    edges: Vec<ChildEdge>,
    groups: Vec<Group>,
    cross_tree: Vec<FeatureExpr>,
    parents: std::collections::HashMap<FeatureId, FeatureId>,
}

impl FeatureModel {
    /// Creates a model whose root feature is `root` (always selected).
    pub fn new(root: FeatureId) -> Self {
        FeatureModel {
            root,
            edges: Vec::new(),
            groups: Vec::new(),
            cross_tree: Vec::new(),
            parents: std::collections::HashMap::new(),
        }
    }

    /// A model with the given root and *no* constraints beyond `root`
    /// itself; every combination of other features is valid.
    pub fn unconstrained(root: FeatureId) -> Self {
        Self::new(root)
    }

    /// The root feature.
    pub fn root(&self) -> FeatureId {
        self.root
    }

    fn add_edge(
        &mut self,
        parent: FeatureId,
        child: FeatureId,
        mandatory: bool,
    ) -> Result<(), ModelError> {
        if self.parents.contains_key(&child) {
            return Err(ModelError::DuplicateParent(child));
        }
        self.parents.insert(child, parent);
        self.edges.push(ChildEdge { child, mandatory });
        Ok(())
    }

    /// Adds `child` as a mandatory child of `parent`.
    ///
    /// # Errors
    ///
    /// [`ModelError::DuplicateParent`] if `child` already has a parent.
    pub fn add_mandatory(&mut self, parent: FeatureId, child: FeatureId) -> Result<(), ModelError> {
        self.add_edge(parent, child, true)
    }

    /// Adds `child` as an optional child of `parent`.
    ///
    /// # Errors
    ///
    /// [`ModelError::DuplicateParent`] if `child` already has a parent.
    pub fn add_optional(&mut self, parent: FeatureId, child: FeatureId) -> Result<(), ModelError> {
        self.add_edge(parent, child, false)
    }

    /// Adds a feature group under `parent`.
    ///
    /// # Errors
    ///
    /// [`ModelError::GroupTooSmall`] for fewer than two members;
    /// [`ModelError::DuplicateParent`] if a member already has a parent.
    pub fn add_group(
        &mut self,
        parent: FeatureId,
        kind: GroupKind,
        members: &[FeatureId],
    ) -> Result<(), ModelError> {
        if members.len() < 2 {
            return Err(ModelError::GroupTooSmall);
        }
        for &m in members {
            if self.parents.contains_key(&m) {
                return Err(ModelError::DuplicateParent(m));
            }
        }
        for &m in members {
            self.parents.insert(m, parent);
        }
        self.groups.push(Group {
            parent,
            kind,
            members: members.to_vec(),
        });
        Ok(())
    }

    /// Adds a cross-tree constraint.
    pub fn add_constraint(&mut self, expr: FeatureExpr) {
        self.cross_tree.push(expr);
    }

    /// Parses and adds a cross-tree constraint in `#ifdef` syntax.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::ParseExprError`] from the expression parser.
    pub fn add_constraint_str(
        &mut self,
        s: &str,
        table: &mut FeatureTable,
    ) -> Result<(), crate::ParseExprError> {
        self.cross_tree.push(FeatureExpr::parse(s, table)?);
        Ok(())
    }

    /// The Batory translation: one propositional formula describing exactly
    /// the valid configurations.
    pub fn to_expr(&self) -> FeatureExpr {
        let mut acc = FeatureExpr::var(self.root);
        for e in &self.edges {
            let parent = self.parents[&e.child];
            let c = FeatureExpr::var(e.child);
            let p = FeatureExpr::var(parent);
            let clause = if e.mandatory { c.iff(p) } else { c.implies(p) };
            acc = acc.and(clause);
        }
        for g in &self.groups {
            let p = FeatureExpr::var(g.parent);
            let disj = g
                .members
                .iter()
                .map(|&m| FeatureExpr::var(m))
                .fold(FeatureExpr::False, FeatureExpr::or);
            let clause = match g.kind {
                GroupKind::Or => p.iff(disj),
                GroupKind::Xor => {
                    let mut mutex = FeatureExpr::True;
                    for (i, &a) in g.members.iter().enumerate() {
                        for &b in &g.members[i + 1..] {
                            mutex = mutex.and(FeatureExpr::var(a).and(FeatureExpr::var(b)).not());
                        }
                    }
                    p.iff(mutex.and(disj))
                }
            };
            acc = acc.and(clause);
        }
        for ct in &self.cross_tree {
            acc = acc.and(ct.clone());
        }
        acc
    }

    /// The model's OR groups as `(parent, members)` pairs, in
    /// declaration order — the candidates for the governor's *confound*
    /// abstraction (XOR groups are excluded: confounding loses their
    /// mutual-exclusion structure for no extra resource headroom).
    pub fn or_groups(&self) -> Vec<(FeatureId, Vec<FeatureId>)> {
        self.groups
            .iter()
            .filter(|g| g.kind == GroupKind::Or)
            .map(|g| (g.parent, g.members.clone()))
            .collect()
    }

    /// All features mentioned by the model (root, tree, groups,
    /// cross-tree constraints).
    pub fn features(&self) -> BTreeSet<FeatureId> {
        let mut out = BTreeSet::new();
        out.insert(self.root);
        for e in &self.edges {
            out.insert(e.child);
            out.insert(self.parents[&e.child]);
        }
        for g in &self.groups {
            out.insert(g.parent);
            out.extend(g.members.iter().copied());
        }
        for c in &self.cross_tree {
            c.collect_features(&mut out);
        }
        out
    }

    /// Serializes the model in the text format accepted by
    /// [`crate::parse_feature_model`] — `parse(to_text(m))` is equivalent
    /// to `m` (asserted by this crate's tests).
    pub fn to_text(&self, table: &FeatureTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "root {}", table.name(self.root));
        for e in &self.edges {
            let kw = if e.mandatory { "mandatory" } else { "optional" };
            let _ = writeln!(
                out,
                "{kw} {} {}",
                table.name(self.parents[&e.child]),
                table.name(e.child)
            );
        }
        for g in &self.groups {
            let kw = match g.kind {
                GroupKind::Or => "or",
                GroupKind::Xor => "xor",
            };
            let members: Vec<&str> = g.members.iter().map(|&m| table.name(m)).collect();
            let _ = writeln!(out, "{kw} {} {}", table.name(g.parent), members.join(" "));
        }
        for c in &self.cross_tree {
            let _ = writeln!(out, "constraint {}", c.display(table));
        }
        out
    }
}
