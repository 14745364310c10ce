// Pass-suite plumbing: names, stack parsing, dispatch, key utilities.
#include "obf/passes.hpp"

#include <cctype>
#include <climits>
#include <fstream>
#include <sstream>

#include "obf/internal.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"

namespace gfre::obf {

const char* to_string(PassKind kind) {
  switch (kind) {
    case PassKind::KeyGates:
      return "keygate";
    case PassKind::PxMix:
      return "pxmix";
    case PassKind::Rewrite:
      return "rewrite";
    case PassKind::FaultStuckAt:
      return "stuckat";
    case PassKind::FaultFlip:
      return "flip";
  }
  return "?";
}

std::optional<PassKind> pass_from_name(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name)
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  for (PassKind kind :
       {PassKind::KeyGates, PassKind::PxMix, PassKind::Rewrite,
        PassKind::FaultStuckAt, PassKind::FaultFlip}) {
    if (lower == to_string(kind)) return kind;
  }
  return std::nullopt;
}

bool semantics_preserving(PassKind kind) {
  switch (kind) {
    case PassKind::KeyGates:
    case PassKind::PxMix:
    case PassKind::Rewrite:
      return true;
    case PassKind::FaultStuckAt:
    case PassKind::FaultFlip:
      return false;
  }
  return false;
}

std::string to_string(const std::vector<PassSpec>& stack) {
  std::string out;
  for (const PassSpec& spec : stack) {
    if (!out.empty()) out.push_back('+');
    out += to_string(spec.kind);
    out.push_back(':');
    out += std::to_string(spec.strength);
  }
  return out;
}

std::vector<PassSpec> parse_pass_stack(const std::string& text,
                                       unsigned default_strength) {
  std::vector<PassSpec> stack;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, '+')) {
    if (item.empty())
      throw InvalidArgument("empty pass in stack '" + text + "'");
    std::string name = item;
    unsigned strength = default_strength;
    const std::size_t colon = item.find(':');
    if (colon != std::string::npos) {
      name = item.substr(0, colon);
      strength = static_cast<unsigned>(parse_u64(
          item.substr(colon + 1), "pass strength in '" + item + "'", 0,
          UINT_MAX));
    }
    const std::optional<PassKind> kind = pass_from_name(name);
    if (!kind) throw InvalidArgument("unknown obfuscation pass '" + name + "'");
    stack.push_back({*kind, strength});
  }
  if (stack.empty()) throw InvalidArgument("empty pass stack '" + text + "'");
  return stack;
}

ObfuscationResult apply_pass(const nl::Netlist& netlist, PassKind kind,
                             unsigned strength, const PassOptions& options) {
  ObfuscationResult result{netlist, {}, options.key_base, {}};
  if (strength == 0) return result;
  Prng rng(options.seed);
  switch (kind) {
    case PassKind::KeyGates:
      result = detail::key_gate_pass(netlist, strength, options, rng);
      break;
    case PassKind::PxMix:
      result.netlist =
          detail::px_mix_pass(netlist, strength, options, rng, &result.decoy);
      break;
    case PassKind::Rewrite:
      result.netlist = detail::rewrite_pass(netlist, strength, rng);
      break;
    case PassKind::FaultStuckAt:
    case PassKind::FaultFlip:
      result.netlist = detail::fault_pass(netlist, kind, strength, rng);
      break;
  }
  return result;
}

ObfuscationResult apply_stack(const nl::Netlist& netlist,
                              const std::vector<PassSpec>& stack,
                              const PassOptions& options) {
  ObfuscationResult acc{netlist, {}, options.key_base, {}};
  unsigned pass_index = 0;
  for (const PassSpec& spec : stack) {
    PassOptions per_pass = options;
    // Derive an independent seed per pass position so reordering a stack
    // reorders every random choice, not just the pass order.
    per_pass.seed = options.seed ^
                    (0x9e3779b97f4a7c15ull * (pass_index + 1)) ^
                    (static_cast<std::uint64_t>(spec.kind) << 32);
    per_pass.first_key_index =
        options.first_key_index + static_cast<unsigned>(acc.key.size());
    ObfuscationResult step =
        apply_pass(acc.netlist, spec.kind, spec.strength, per_pass);
    acc.netlist = std::move(step.netlist);
    acc.key.insert(acc.key.end(), step.key.begin(), step.key.end());
    if (!step.decoy.is_zero()) acc.decoy = step.decoy;
    ++pass_index;
  }
  return acc;
}

std::vector<bool> complement_key(const std::vector<bool>& key) {
  std::vector<bool> out(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) out[i] = !key[i];
  return out;
}

std::string render_key(const std::vector<bool>& key) {
  std::string out;
  out.reserve(key.size());
  for (bool bit : key) out.push_back(bit ? '1' : '0');
  return out;
}

std::vector<bool> parse_key(const std::string& text) {
  std::vector<bool> key;
  key.reserve(text.size());
  for (char c : text) {
    if (c != '0' && c != '1')
      throw InvalidArgument("key must be a 0/1 string, got '" + text + "'");
    key.push_back(c == '1');
  }
  return key;
}

std::vector<bool> read_key_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot read key file " + path);
  std::string line;
  while (std::getline(is, line)) {
    std::string trimmed;
    for (char c : line)
      if (!std::isspace(static_cast<unsigned char>(c))) trimmed.push_back(c);
    if (!trimmed.empty()) return parse_key(trimmed);
  }
  throw Error("key file " + path + " is empty");
}

void write_key_file(const std::vector<bool>& key, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  os << render_key(key) << "\n";
  if (!os) throw Error("cannot write key file " + path);
}

}  // namespace gfre::obf
