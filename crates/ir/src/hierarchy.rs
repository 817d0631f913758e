//! Class hierarchy and CHA-style virtual dispatch resolution.

use crate::types::*;
use std::collections::HashMap;

/// Precomputed class-hierarchy queries for a [`Program`].
///
/// Virtual calls are resolved with Class Hierarchy Analysis: a call
/// `base.m()` where `base` has declared type `C` may dispatch to the
/// implementation of `m` visible in any subtype of `C`. As in the paper
/// (§5, "Current Limitations"), resolution is *feature-insensitive*: the
/// call graph ignores annotations, which is sound but imprecise.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    subclasses: Vec<Vec<ClassId>>,
    /// (class, name, argc) → dispatched implementation.
    dispatch: HashMap<(ClassId, String, usize), MethodId>,
}

impl Hierarchy {
    /// Builds the hierarchy tables for `program`.
    pub fn new(program: &Program) -> Self {
        let n = program.classes().len();
        let mut subclasses: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        for (i, c) in program.classes().iter().enumerate() {
            if let Some(sup) = c.superclass {
                subclasses[sup.index()].push(ClassId(i as u32));
            }
        }
        let mut dispatch = HashMap::new();
        for (i, _) in program.classes().iter().enumerate() {
            let cid = ClassId(i as u32);
            // Walk from `cid` up the superclass chain; the first
            // declaration of each (name, argc) wins (override).
            let mut cur = Some(cid);
            while let Some(c) = cur {
                for &mid in &program.class(c).methods {
                    let m = program.method(mid);
                    if m.is_static {
                        continue;
                    }
                    let key = (cid, m.name.clone(), m.params.len());
                    dispatch.entry(key).or_insert(mid);
                }
                cur = program.class(c).superclass;
            }
        }
        Hierarchy {
            subclasses,
            dispatch,
        }
    }

    /// All subtypes of `c`, including `c` itself, in deterministic order.
    pub fn subtypes_of(&self, c: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend(self.subclasses[x.index()].iter().rev().copied());
        }
        out.sort();
        out
    }

    /// `true` iff `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subtype(&self, program: &Program, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = program.class(c).superclass;
        }
        false
    }

    /// The implementation a receiver of *exact* runtime type `c` dispatches
    /// to for `name`/`argc`, if any.
    pub fn dispatch(&self, c: ClassId, name: &str, argc: usize) -> Option<MethodId> {
        self.dispatch.get(&(c, name.to_owned(), argc)).copied()
    }

    /// CHA resolution: all implementations a call `base.name(...)` with
    /// declared receiver type `declared` may reach.
    pub fn resolve_virtual(&self, declared: ClassId, name: &str, argc: usize) -> Vec<MethodId> {
        let mut out: Vec<MethodId> = self
            .subtypes_of(declared)
            .into_iter()
            .filter_map(|c| self.dispatch(c, name, argc))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}
