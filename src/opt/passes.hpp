// Netlist optimization passes — the "ABC synthesis" substrate.
//
// The paper's Table III circuits are "optimized and mapped using synthesis
// tool ABC".  We reproduce that input class with our own passes:
//
//   constant_propagate  — fold constants, drop BUFs, collapse INV pairs
//   structural_hash     — common-subexpression elimination (strash/CSE)
//   rebalance_xor       — collapse XOR networks, cancel duplicate leaves
//                         mod 2, rebuild balanced trees
//   share_xor_pairs     — fast_extract-style common XOR divisor sharing
//                         across output cones
//   map_aoi             — fuse NOR(AND..)/NAND(OR..) into AOI/OAI cells
//   tech_map            — map onto {NAND, NOR, INV, (XOR)} standard cells
//
// `synthesize` chains them into the Table III optimization pipeline.
// Every pass is semantics-preserving (checked by simulation in the tests).
#pragma once

#include "netlist/netlist.hpp"

namespace gfre::opt {

/// Constant folding + BUF/INV-pair cleanup, followed by a dead-gate sweep.
nl::Netlist constant_propagate(const nl::Netlist& netlist);

/// Removes gates outside the fanin cones of the primary outputs.
nl::Netlist sweep_dead(const nl::Netlist& netlist);

/// Structural hashing: identical (cell, operand-set) gates are merged.
nl::Netlist structural_hash(const nl::Netlist& netlist);

/// Collapses single-fanout XOR networks into leaf sets, cancels duplicated
/// leaves (x ^ x = 0), and rebuilds balanced XOR trees.
nl::Netlist rebalance_xor(const nl::Netlist& netlist);

/// Greedy common-pair extraction over XOR leaf sets (the core move of
/// ABC's `fx`): while some leaf pair occurs in >= 2 gate leaf-sets,
/// extract it as a shared XOR gate.  `max_rounds` bounds the greedy loop.
nl::Netlist share_xor_pairs(const nl::Netlist& netlist,
                            unsigned max_rounds = 1u << 20);

/// Fuses inverting AND/OR stacks into complex cells:
///   NOR(AND(a,b), c)          -> AOI21(a, b, c)
///   NOR(AND(a,b), AND(c,d))   -> AOI22(a, b, c, d)
///   NAND(OR(a,b), c)          -> OAI21(a, b, c)
///   NAND(OR(a,b), OR(c,d))    -> OAI22(a, b, c, d)
///   INV(OR/AND ...) forms of the same patterns.
nl::Netlist map_aoi(const nl::Netlist& netlist);

struct TechMapOptions {
  /// Keep XOR/XNOR cells (standard-cell flow).  When false, XORs are
  /// decomposed into the 4-NAND network (pure NAND-library flow).
  bool keep_xor = true;
};

/// Technology mapping onto {NAND2, NOR2, INV} (+XOR2 when keep_xor).
nl::Netlist tech_map(const nl::Netlist& netlist,
                     const TechMapOptions& options = {});

struct SynthesisOptions {
  bool run_share = true;
  bool run_map_aoi = true;
  bool run_tech_map = false;  // Table III keeps XOR cells, no NAND mapping
  TechMapOptions tech_map;
};

/// The Table III pipeline: const-prop, strash, XOR rebalancing + sharing,
/// AOI fusion, optional tech mapping, final cleanup.
nl::Netlist synthesize(const nl::Netlist& netlist,
                       const SynthesisOptions& options = {});

}  // namespace gfre::opt
