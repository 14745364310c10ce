// Command-line reverse-engineering tool — the deliverable a user would
// actually run on an unknown netlist:
//
//   reverse_engineer [options] <netlist.{eqn,blif,v}>
//   reverse_engineer --demo           (generate + analyze a sample)
//
// Options: see usage() below (or run `reverse_engineer --help`) — the CI
// docs job keeps that listing in sync with README.md's flag table.
//
// Exit code 0 iff a GF(2^m) multiplier was recognized, its P(x) is
// irreducible, and all checks passed.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "core/rewriter.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "util/error.hpp"
#include "util/options.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: reverse_engineer [--threads N] [--ports a,b,z]\n"
     << "                        [--library cells.lib]\n"
     << "                        [--no-verify] [--trace BIT]\n"
     << "                        <netlist.eqn|netlist.blif|netlist.v>\n"
     << "       reverse_engineer --demo\n"
     << "       reverse_engineer --help\n"
     << "\n"
     << "  --threads N        extraction threads (default: hardware)\n"
     << "  --ports a,b,z      operand/result port base names (default\n"
     << "                     a,b,z)\n"
     << "  --library FILE     cell library (.lib subset) resolving\n"
     << "                     non-builtin cells\n"
     << "  --no-verify        skip the golden-model comparison\n"
     << "  --trace BIT        print the Algorithm-1 trace of one output bit\n"
     << "  --demo             generate and analyze a GF(2^233) sample\n"
     << "  --help             print this message and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  std::string path;
  core::FlowOptions options;
  options.threads = static_cast<unsigned>(configured_threads());
  bool demo = false;
  std::optional<std::uint64_t> trace_bit;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--demo") {
        demo = true;
      } else if (arg == "--help") {
        usage(std::cout);
        return 0;
      } else if (arg == "--no-verify") {
        options.verify_with_golden = false;
      } else if (arg == "--library" && i + 1 < argc) {
        options.library = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        // Every flow runs on scheduler workers, so the count must be sane
        // before any thread is started; same bounds as gfre_batch.
        options.threads =
            static_cast<unsigned>(parse_u64(argv[++i], arg, 1, 4096));
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_bit = parse_u64(argv[++i], arg);
      } else if (arg == "--ports" && i + 1 < argc) {
        try {
          core::parse_port_spec(argv[++i], options);
        } catch (const InvalidArgument& e) {
          std::cerr << "--ports: " << e.what() << "\n";
          usage(std::cerr);
          return 2;
        }
      } else if (!arg.empty() && arg[0] == '-') {
        usage(std::cerr);
        return 2;
      } else {
        path = arg;
      }
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  }

  try {
    nl::Netlist netlist("demo");
    if (demo) {
      // A realistic demo: the NIST K-233 field, flattened Mastrovito.
      const gf2m::Field field(gf2::Poly{233, 74, 0});
      std::cout << "demo mode: generating a flattened Mastrovito multiplier "
                << "over " << field.to_string() << "\n";
      netlist = gen::generate_mastrovito(field);
    } else if (path.empty()) {
      usage(std::cerr);
      return 2;
    } else {
      netlist = core::load_netlist_file(path, options.library);
      std::cout << "loaded '" << path << "': " << netlist.num_equations()
                << " equations, " << netlist.inputs().size() << " inputs, "
                << netlist.outputs().size() << " outputs\n";
    }

    if (trace_bit.has_value()) {
      const auto v = netlist.find_var(options.z_base +
                                      std::to_string(*trace_bit));
      if (!v.has_value()) {
        std::cerr << "no output net " << options.z_base << *trace_bit
                  << "\n";
        return 2;
      }
      core::RewriteOptions rewrite_options;
      rewrite_options.trace = &std::cout;
      std::cout << "--- Algorithm 1 trace of bit " << *trace_bit
                << " ---\n";
      (void)core::extract_output_anf(netlist, *v, rewrite_options);
      std::cout << "\n";
    }

    const auto report = core::reverse_engineer(netlist, options);
    std::cout << report.summary();
    return report.success ? 0 : 1;
  } catch (const gfre::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
