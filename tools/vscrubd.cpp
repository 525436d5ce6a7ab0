// vscrubd — the standalone campaign-service daemon. A thin shell over the
// same `serve` command implementation `vscrubctl serve` uses; exists so a
// deployment can ship and supervise the daemon without the full CLI.
//
// `vscrubd --coordinator` runs the campaign-fabric coordinator instead
// (the `vscrubctl fleet-serve` engine): same VSRP1 socket transport, but
// the frames shard campaigns across a registered fleet of worker daemons.
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.h"
#include "serve_common.h"

int main(int argc, char** argv) {
  using namespace vscrub;
  bool coordinator = false;
  bool help = false;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    coordinator = coordinator || word == "--coordinator";
    help = help || word == "--help" || word == "-h";
    if (word != "--coordinator") rest.push_back(word);
  }
  const CliCommand* cmd = cli_find(coordinator ? "fleet-serve" : "serve");
  if (help) {
    std::fputs(
        cli_help(*cmd, coordinator ? "vscrubd --coordinator" : "vscrubd")
            .c_str(),
        stdout);
    return 0;
  }
  try {
    const CliArgs args = cli_parse(*cmd, rest);
    return coordinator ? run_fleet_serve(args) : run_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vscrubd: %s\n", e.what());
    return 1;
  }
}
