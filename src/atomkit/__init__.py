"""Atoms of presheaf toposes over two concrete sites.

Backends: finite sets with injections ("finsetinj") and finitary
labeled binary trees with root-preserving embeddings ("itree").  On top
of the shared site interface sit formal atoms (object, automorphism
subgroup), their maps and coequalizers, presheaf fragments with
support/stabilizer/decomposition, bounded sheaf-theoretic checkers, and
audits of the site conditions.
"""

from . import finsetinj as _finsetinj  # noqa: F401  registers the backend
from . import itree as _itree  # noqa: F401  registers the backend
from .atoms import (AtomMap, CoeqTrace, FormalAtom, atom_compose, atom_hom,
                    atom_identity, atom_iso_formal, class_rep,
                    coequalize_representables, decode_atom, encode_atom,
                    make_atom, rep_is_valid)
from .audit import (AuditReport, atom_chain, audit_c1, audit_c2prime,
                    audit_c3, audit_c4, c2prime_chain, extend_parallel_pair)
from .core import (AutGroup, Cocone, PullbackSquare, SiteError, amalgamate,
                   aut_group, backend, canonical_json, compose,
                   decode_morphism, decode_object, encode_morphism,
                   encode_object, factor, group_name, hom_set, identity,
                   inverse, is_identity, is_iso, morphism_key, object_key,
                   pullback, rank, sort_key, subgroup_generated)
from .finsetinj import FinSet, Injection, make_injection
from .itree import (FinitaryTree, TreeEmbedding, build, enumerate_embeddings,
                    enumerate_trees, identity_embedding, leaf, make_embedding,
                    node, tail, tree_stats, validate_tree)
from .presheaf import (AtomComponent, CheckVerdict, ClosureError,
                       Decomposition, KResult, PresheafFragment,
                       assert_pullback_closed, checker_objects, compute_K,
                       decode_fragment, decompose, encode_fragment,
                       fragment_from_tables, local_iso_check,
                       ordered_pairs_fragment, quotient_classes,
                       quotient_fragment, representable_fragment,
                       self_intersection_check, sheaf_check_quotient,
                       stabilizer, support_element,
                       unordered_pairs_fragment)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
