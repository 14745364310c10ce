// Open-addressed string -> dense id table for net names.
//
// Ids are dense uint32 values in insertion order.  Each name is stored
// once, in a deque so that its address stays stable while the table grows
// (Netlist::var_name hands out references to it).  The probe array holds
// (hash, id) pairs, so growing it never rehashes a name and a probe
// compares strings only on a hash match.  Nothing stores an address, so
// the default copy and move are correct.  std::deque's move constructor
// allocates a small empty map for the source; the table's move is
// declared noexcept anyway (a failure there terminates), so that a
// Netlist holding one stays nothrow-movable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfre::util {

class NameTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kMissing = ~Id{0};

  NameTable() = default;
  NameTable(const NameTable&) = default;
  NameTable& operator=(const NameTable&) = default;
  NameTable(NameTable&&) noexcept = default;
  NameTable& operator=(NameTable&&) noexcept = default;

  std::size_t size() const { return names_.size(); }
  const std::string& name(Id id) const { return names_[id]; }

  /// The id of `name`, or kMissing.  Read-only: safe to call from many
  /// threads on a table nobody mutates.
  Id find(std::string_view name) const {
    if (slots_.empty()) return kMissing;
    return slots_[probe(name, hash_of(name))].id;
  }

  /// The id of `name`, giving it the next id when it is new; `second`
  /// tells whether it was.
  std::pair<Id, bool> intern(std::string_view name) {
    if (2 * (names_.size() + 1) > slots_.size()) grow();
    const std::uint32_t hash = hash_of(name);
    Slot& slot = slots_[probe(name, hash)];
    if (slot.id != kMissing) return {slot.id, false};
    slot = Slot{hash, static_cast<Id>(names_.size())};
    names_.emplace_back(name);
    return {slot.id, true};
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    Id id = kMissing;  ///< kMissing marks an empty slot
  };

  static std::uint32_t hash_of(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  /// Index of the slot holding `name`, or of the empty slot where it
  /// belongs.  Linear probing; the table is at most half full.
  std::size_t probe(std::string_view name, std::uint32_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kMissing ||
          (slot.hash == hash && names_[slot.id] == name))
        return i;
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kMissing) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].id != kMissing) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::deque<std::string> names_;
  std::vector<Slot> slots_;  ///< power-of-two size, or empty
};

}  // namespace gfre::util
