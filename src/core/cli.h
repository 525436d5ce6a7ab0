// Declarative command-line surface for vscrubctl. The command table — every
// subcommand, its positionals and its flags — lives here in the library
// rather than in the tool so the test suite can enforce the CLI contract:
// one flag-naming convention (long flags are lowercase `--kebab-case`), no
// undeclared flags accepted, and `--help` output that lists every declared
// flag of every subcommand.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "report/json.h"

namespace vscrub {

struct CliFlag {
  std::string name;        ///< "--gang-width", "--json", "-o", ...
  bool takes_value = false;
  std::string value_name;  ///< "N", "FILE", ... (empty for boolean flags)
  std::string help;
};

struct CliCommand {
  std::string name;        ///< "campaign"
  std::string positional;  ///< "<design>" or "" when none
  std::string help;        ///< one-line description
  std::vector<CliFlag> flags;
};

/// The full vscrubctl command table: the single source of truth for parsing,
/// per-command help, the usage screen, and the CLI tests.
const std::vector<CliCommand>& cli_commands();

/// Lookup by command name; nullptr when unknown.
const CliCommand* cli_find(const std::string& name);

/// Parsed arguments of one invocation.
struct CliArgs {
  std::vector<std::string> positional;
  /// (flag name, value) pairs; boolean flags carry an empty value.
  std::vector<std::pair<std::string, std::string>> options;

  bool flag(const std::string& name) const;
  std::string option(const std::string& name, const std::string& dflt) const;
  /// Strict numeric value: junk, a sign, trailing bytes or overflow throw a
  /// ParamError naming the flag.
  u64 option_u64(const std::string& name, u64 dflt) const;
};

/// Parses everything after the command word against the command's declared
/// flags. Throws Error on an undeclared flag or a value flag with no value.
CliArgs cli_parse(const CliCommand& cmd,
                  const std::vector<std::string>& argv);

/// The work request a command line describes: one field per work-request
/// table row (svc/requests.h) given as a flag, keyed by the row's request
/// key, in a report of kind `kind`. Rows not given stay unset, so the
/// request parser's defaults apply. Throws ParamError on a malformed value.
JsonReport cli_request(const CliArgs& args, const std::string& kind);

/// Help text for one command: usage line plus one line per declared flag.
/// `invocation` replaces "vscrubctl <command>" in the usage line (vscrubd
/// runs the serve commands as plain `vscrubd`).
std::string cli_help(const CliCommand& cmd,
                     const std::string& invocation = "");

/// The all-commands usage screen.
std::string cli_usage();

}  // namespace vscrub
