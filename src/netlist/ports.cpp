#include "netlist/ports.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>

#include "util/error.hpp"

namespace gfre::nl {

namespace {

/// Splits "a12" into ("a", 12) and "a[12]" into ("a", 12) — the latter is
/// how the Verilog frontend names flattened vector-port bits.  Returns
/// false when the name has no trailing index, no base, or an index that
/// does not fit `unsigned`.
bool split_indexed(const std::string& name, std::string& base,
                   unsigned& index) {
  std::size_t end = name.size();
  const bool bracket = end > 0 && name[end - 1] == ']';
  if (bracket) --end;
  std::size_t pos = end;
  while (pos > 0 && std::isdigit(static_cast<unsigned char>(name[pos - 1]))) {
    --pos;
  }
  if (pos == end || pos == 0) return false;
  if (bracket) {
    if (name[pos - 1] != '[') return false;
    base = name.substr(0, pos - 1);
    if (base.empty()) return false;
  } else {
    base = name.substr(0, pos);
  }
  // An index beyond `unsigned` is no word bit (never wrapped, never thrown).
  const auto [ptr, ec] =
      std::from_chars(name.data() + pos, name.data() + end, index);
  return ec == std::errc{};
}

std::vector<WordPort> group_ports(const Netlist& netlist,
                                  const std::vector<Var>& nets) {
  std::map<std::string, std::map<unsigned, Var>> groups;
  for (Var v : nets) {
    std::string base;
    unsigned index = 0;
    if (split_indexed(netlist.var_name(v), base, index)) {
      groups[base][index] = v;
    }
  }
  std::vector<WordPort> ports;
  for (auto& [base, bits] : groups) {
    // Require dense indices 0..k-1.
    if (bits.begin()->first != 0 ||
        bits.rbegin()->first + 1 != bits.size()) {
      continue;
    }
    WordPort port;
    port.base = base;
    port.bits.reserve(bits.size());
    for (auto& [idx, v] : bits) port.bits.push_back(v);
    ports.push_back(std::move(port));
  }
  return ports;
}

}  // namespace

std::optional<WordPort> find_word_port(const Netlist& netlist,
                                       const std::string& base) {
  WordPort port;
  port.base = base;
  for (unsigned i = 0;; ++i) {
    // Suffix style ("a0") first — the generator/paper convention — then
    // bracket style ("a[0]"), which flattened Verilog vector ports use.
    auto v = netlist.find_var(base + std::to_string(i));
    if (!v.has_value())
      v = netlist.find_var(base + "[" + std::to_string(i) + "]");
    if (!v.has_value()) break;
    port.bits.push_back(*v);
  }
  if (port.bits.empty()) return std::nullopt;
  return port;
}

std::vector<WordPort> input_word_ports(const Netlist& netlist) {
  return group_ports(netlist, netlist.inputs());
}

std::vector<WordPort> output_word_ports(const Netlist& netlist) {
  return group_ports(netlist, netlist.outputs());
}

std::optional<MultiplierPorts> infer_multiplier_ports(
    const Netlist& netlist) {
  auto ins = input_word_ports(netlist);
  auto outs = output_word_ports(netlist);
  if (ins.size() != 2 || outs.size() != 1) return std::nullopt;
  if (ins[0].width() != ins[1].width() ||
      ins[0].width() != outs[0].width()) {
    return std::nullopt;
  }
  // Every PI/PO must be covered (otherwise there are extra control pins and
  // this is not a plain multiplier interface).
  if (ins[0].bits.size() + ins[1].bits.size() != netlist.inputs().size()) {
    return std::nullopt;
  }
  if (outs[0].bits.size() != netlist.outputs().size()) return std::nullopt;
  // group_ports returns bases in lexicographic order already (std::map).
  return MultiplierPorts{std::move(ins[0]), std::move(ins[1]),
                         std::move(outs[0])};
}

MultiplierPorts multiplier_ports(const Netlist& netlist,
                                 const std::string& a_base,
                                 const std::string& b_base,
                                 const std::string& z_base) {
  auto a = find_word_port(netlist, a_base);
  auto b = find_word_port(netlist, b_base);
  auto z = find_word_port(netlist, z_base);
  if (!a || !b || !z) {
    throw InvalidArgument("netlist '" + netlist.name() +
                          "' lacks multiplier ports " + a_base + "/" +
                          b_base + "/" + z_base);
  }
  if (a->width() != b->width() || a->width() != z->width()) {
    throw InvalidArgument(
        "multiplier port widths disagree: " + a_base + "=" +
        std::to_string(a->width()) + " " + b_base + "=" +
        std::to_string(b->width()) + " " + z_base + "=" +
        std::to_string(z->width()));
  }
  return MultiplierPorts{std::move(*a), std::move(*b), std::move(*z)};
}

}  // namespace gfre::nl
