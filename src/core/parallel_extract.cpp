#include "core/parallel_extract.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace gfre::core {

ExtractionResult extract_outputs(const nl::Netlist& netlist,
                                 const std::vector<nl::Var>& outputs,
                                 unsigned threads,
                                 RewriteStrategy strategy,
                                 std::size_t max_terms) {
  GFRE_ASSERT(threads >= 1, "need at least one extraction thread");
  ExtractionResult result;
  result.threads = threads;
  result.anfs.resize(outputs.size());
  result.per_bit.resize(outputs.size());

  Timer timer;
  RewriteOptions options;
  options.strategy = strategy;
  options.max_terms = max_terms;
  const auto extract = [&](std::size_t i) {
    result.anfs[i] = extract_output_anf(netlist, outputs[i], options,
                                        &result.per_bit[i]);
  };

  if (threads == 1) {
    for (std::size_t i = 0; i < outputs.size(); ++i) extract(i);
  } else {
    // Workers pull cone indices from one cursor.  A throwing cone parks its
    // exception in its own slot and the rest still run, so nothing is in
    // flight when the lowest-index failure — the one the sequential loop
    // stops at — is rethrown after the join.
    std::vector<std::exception_ptr> failures(outputs.size());
    std::atomic<std::size_t> next{0};
    {
      std::vector<std::jthread> workers;
      const std::size_t width = std::min<std::size_t>(threads, outputs.size());
      workers.reserve(width);
      for (std::size_t w = 0; w < width; ++w) {
        workers.emplace_back([&] {
          for (std::size_t i = next++; i < outputs.size(); i = next++) {
            try {
              extract(i);
            } catch (...) {
              failures[i] = std::current_exception();
            }
          }
        });
      }
    }
    for (const auto& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
  }
  result.wall_seconds = timer.seconds();
  for (const auto& stats : result.per_bit) {
    result.total_peak_terms += stats.peak_terms;
  }
  return result;
}

ExtractionResult extract_all_outputs(const nl::Netlist& netlist,
                                     unsigned threads,
                                     RewriteStrategy strategy,
                                     std::size_t max_terms) {
  return extract_outputs(netlist, netlist.outputs(), threads, strategy,
                         max_terms);
}

}  // namespace gfre::core
