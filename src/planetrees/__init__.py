"""Partitions of complete geometric graphs on 2n points into n plane
spanning trees: wheel and halving-line constructions, classification,
and independent verification."""

from .errors import (DegenerateInput, HypothesisViolated, InvalidChoices,
                     InvalidParameter, InvariantViolation, NoHLabeling,
                     NotAHalvingLine, NotAPartition, NotATree, NotWCaterpillar,
                     NotWheelConfig, NoWLabeling, OddPointCount, ParseError,
                     PlaneTreesError, SideViolation, SizeMismatch,
                     StructureViolation, TooLarge)
from .geom_core import (CyclicOrder, Orientation, Point, PointSet,
                        collinear_triple, convex_hull, cyclic_order, edge,
                        make_wheel, orientation, segments_cross,
                        wheel_crossing)
from .halving import (HalvingLine, HalvingProfile, HLabeling,
                      HypothesisReport, WLabeling, balance,
                      check_theorem3_hypothesis, check_theorem4_hypothesis,
                      h_labeling, halving_profile, k_halving_lines,
                      w_labeling)
from .halving_partition import (ConstructionChoices, lemma6_tree,
                                theorem2_partition, theorem3_partition,
                                theorem4_partition)
from .tree_taxonomy import (GeomTree, P4Witness, Partition, SymmetricWitness,
                            TreeClassReport, boundary_edges, classify,
                            is_plane, is_spanning_tree, radial_edges,
                            tree_canon)
from .verify_oracle import (VerifyReport, brute_force_partitions,
                            check_observation1, observation1_splits,
                            verify_partition)
from .wheel_partition import (TreeStats, WheelAnalysis,
                              analyze_wheel_partition, build_wheel_partition,
                              check_note1, place_caterpillar_on_chain,
                              rotate_tree)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
