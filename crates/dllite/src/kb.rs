//! The knowledge base `K = ⟨T, A⟩` bundling vocabulary, ontology and facts.

use crate::abox::ABox;
use crate::chase::{chase, ChaseInstance};
use crate::consistency::{check_consistency, Violation};
use crate::deps::Dependencies;
use crate::parser::{parse_kb, ParseError};
use crate::tbox::TBox;
use crate::vocab::Vocabulary;

/// A DL-LiteR knowledge base.
///
/// Owns the [`Vocabulary`] shared by its [`TBox`] and [`ABox`]. Dependency
/// sets (Definition 4) are computed once on demand and cached, since every
/// safety check of the cover machinery consults them.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    voc: Vocabulary,
    tbox: TBox,
    abox: ABox,
    deps: Option<Dependencies>,
}

impl KnowledgeBase {
    pub fn new(voc: Vocabulary, tbox: TBox, abox: ABox) -> Self {
        KnowledgeBase {
            voc,
            tbox,
            abox,
            deps: None,
        }
    }

    /// Parse a KB from the textual format of [`crate::parser`].
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        let parsed = parse_kb(input)?;
        Ok(Self::new(parsed.voc, parsed.tbox, parsed.abox))
    }

    pub fn voc(&self) -> &Vocabulary {
        &self.voc
    }

    pub fn tbox(&self) -> &TBox {
        &self.tbox
    }

    pub fn abox(&self) -> &ABox {
        &self.abox
    }

    pub fn voc_mut(&mut self) -> &mut Vocabulary {
        self.deps = None;
        &mut self.voc
    }

    pub fn abox_mut(&mut self) -> &mut ABox {
        &mut self.abox
    }

    /// Dependency sets per Definition 4, computed once and cached.
    pub fn deps(&mut self) -> &Dependencies {
        if self.deps.is_none() {
            self.deps = Some(Dependencies::compute(&self.voc, &self.tbox));
        }
        self.deps.as_ref().expect("just computed")
    }

    /// Compute dependencies without caching (for `&self` contexts).
    pub fn compute_deps(&self) -> Dependencies {
        Dependencies::compute(&self.voc, &self.tbox)
    }

    /// Bounded restricted chase of the ABox (testing oracle).
    pub fn chase(&self, max_depth: u32) -> ChaseInstance {
        chase(&self.tbox, &self.abox, max_depth)
    }

    /// All violations of negative constraints (empty = consistent).
    pub fn consistency_violations(&self) -> Vec<Violation> {
        check_consistency(&self.voc, &self.tbox, &self.abox)
    }

    /// Is the ABox `T`-consistent?
    pub fn is_consistent(&self) -> bool {
        self.consistency_violations().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abox::example1_abox;
    use crate::ids::PredId;
    use crate::tbox::example1_tbox;

    fn example1_kb() -> KnowledgeBase {
        let (mut voc, tbox) = example1_tbox();
        let abox = example1_abox(&mut voc);
        KnowledgeBase::new(voc, tbox, abox)
    }

    #[test]
    fn kb_wires_components() {
        let kb = example1_kb();
        assert_eq!(kb.tbox().len(), 7);
        assert_eq!(kb.abox().len(), 3);
        assert!(kb.is_consistent());
    }

    #[test]
    fn deps_are_cached_and_invalidated() {
        let mut kb = example1_kb();
        let works = PredId::Role(kb.voc().find_role("worksWith").unwrap());
        let sup = PredId::Role(kb.voc().find_role("supervisedBy").unwrap());
        assert!(kb.deps().share_dependency(works, sup));
        // Mutating the TBox invalidates the cache (observable only through
        // recomputation correctness).
        let fresh_role = kb.voc_mut().role("fresh");
        let fresh = PredId::Role(fresh_role);
        assert!(!kb.deps().share_dependency(fresh, sup));
    }

    #[test]
    fn parse_roundtrip() {
        let kb = KnowledgeBase::parse("A <= B\nA(x)").unwrap();
        assert_eq!(kb.tbox().len(), 1);
        assert_eq!(kb.abox().len(), 1);
        assert!(kb.is_consistent());
    }

    #[test]
    fn chase_through_kb() {
        let kb = example1_kb();
        let inst = kb.chase(3);
        assert!(inst.num_facts() > kb.abox().len(), "chase infers new facts");
    }
}
