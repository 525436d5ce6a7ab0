#include "core/cli.h"

#include "common/types.h"
#include "coord/coordinator.h"
#include "svc/config.h"
#include "svc/requests.h"

namespace vscrub {

namespace {

CliFlag value_flag(const char* name, const char* value_name,
                   const char* help) {
  return CliFlag{name, true, value_name, help};
}

CliFlag bool_flag(const char* name, const char* help) {
  return CliFlag{name, false, "", help};
}

CliFlag to_flag(const RequestParam& p) {
  return CliFlag{param_flag(p), p.type != ParamType::kFlag, p.value_name,
                 p.help};
}

/// The work-request rows (svc/requests.h) that apply to `scope`, as flags.
std::vector<CliFlag> param_flags(u8 scope) {
  std::vector<CliFlag> flags;
  for (const RequestParam& p : request_params()) {
    if ((p.applies_to & scope) != 0) flags.push_back(to_flag(p));
  }
  return flags;
}

/// `base` followed by flags local to one command.
std::vector<CliFlag> with(std::vector<CliFlag> base,
                          std::vector<CliFlag> local) {
  base.insert(base.end(), local.begin(), local.end());
  return base;
}

std::vector<CliFlag> from_config(const std::vector<ServiceConfigFlag>& table) {
  std::vector<CliFlag> flags;
  for (const ServiceConfigFlag& f : table) {
    flags.push_back(CliFlag{f.name, f.takes_value, f.value_name, f.help});
  }
  return flags;
}

std::vector<CliFlag> campaign_flags() {
  return with(param_flags(kCampaignParam),
              {
                  value_flag("--threads", "N", "worker threads (0 = hardware)"),
                  value_flag("--checkpoint", "FILE", "checkpoint/resume file"),
                  bool_flag("--progress", "live progress line on stderr"),
                  value_flag("--cache-dir", "DIR",
                             "content-addressed verdict store"),
                  value_flag("--json", "FILE",
                             "write a versioned campaign report"),
              });
}

std::vector<CliCommand> build_commands() {
  // The device row, for the commands that are not work requests.
  const CliFlag device = to_flag(request_params().front());
  return {
      {"compile", "<design>", "place, route and emit a configuration image",
       {
           device,
           bool_flag("--raddrc", "route LUT-ROM constants (half-latch DRC)"),
           bool_flag("--tmr", "apply triple modular redundancy first"),
           value_flag("-o", "FILE", "write the bitstream image"),
       }},
      {"campaign", "<design>", "run a fault-injection campaign",
       campaign_flags()},
      {"recampaign", "<design>", "delta re-campaign against a verdict store",
       campaign_flags()},
      {"beam", "<design>", "virtual beam-test correlation run",
       {
           device,
           value_flag("--observations", "N", "beam observations (default 1000)"),
       }},
      {"mission", "", "single on-orbit mission simulation",
       with(param_flags(kMissionParam),
            {value_flag("--trace", "FILE", "write a JSONL event trace"),
             value_flag("--json", "FILE",
                        "write a versioned mission report")})},
      {"fleet", "", "Monte-Carlo fleet of seeded missions",
       with(param_flags(kFleetParam),
            {value_flag("--threads", "N", "worker threads (0 = hardware)"),
             value_flag("--json", "FILE", "write a versioned fleet report")})},
      {"bist", "", "built-in self-test of the fabric model", {device}},
      // The daemon surfaces are declared once, in svc/config.h and
      // coord/coordinator.h; the CLI table derives them so a knob cannot
      // exist without its flag.
      {"serve", "", "run the vscrubd campaign service (VSRP1 socket)",
       from_config(service_config_flags())},
      {"submit", "<op> [design]",
       "submit ping|stats|campaign|recampaign|mission|fleet to a vscrubd",
       with(param_flags(kCampaignParam | kMissionParam | kFleetParam),
            {
                value_flag("--socket", "PATH",
                           "unix socket path (default /tmp/vscrubd.sock)"),
                value_flag("--tenant", "NAME",
                           "fair-share tenant identity for this submission "
                           "(default: per-connection)"),
                bool_flag("--progress", "stream progress frames to stderr"),
                value_flag("--json", "FILE", "write the returned report JSON"),
            })},
      {"fleet-serve", "", "run the campaign-fabric coordinator (VSRP1 socket)",
       with(from_config(coordinator_config_flags()),
            {value_flag("--stats-json", "FILE",
                        "write coordinator stats after the drain")})},
      {"fleet-submit", "<design>",
       "submit a sharded campaign to a fleet coordinator",
       with(param_flags(kCampaignParam),
            {
                value_flag("--socket", "PATH",
                           "coordinator socket (default "
                           "/tmp/vscrub-coord.sock)"),
                bool_flag("--progress",
                          "stream merged fabric progress to stderr"),
                value_flag("--json", "FILE",
                           "write the merged campaign report"),
            })},
      {"info", "<image.vsb>", "describe a saved configuration image", {}},
      {"designs", "", "list built-in design generators", {}},
      {"devices", "", "list device geometries", {}},
      {"policies", "", "list scrub policies", {}},
      {"version", "",
       "print workbench API, library and report-schema versions", {}},
  };
}

}  // namespace

const std::vector<CliCommand>& cli_commands() {
  static const std::vector<CliCommand> commands = build_commands();
  return commands;
}

const CliCommand* cli_find(const std::string& name) {
  for (const CliCommand& cmd : cli_commands()) {
    if (cmd.name == name) return &cmd;
  }
  return nullptr;
}

bool CliArgs::flag(const std::string& name) const {
  for (const auto& [k, v] : options) {
    if (k == name) return true;
  }
  return false;
}

std::string CliArgs::option(const std::string& name,
                            const std::string& dflt) const {
  for (const auto& [k, v] : options) {
    if (k == name) return v;
  }
  return dflt;
}

u64 CliArgs::option_u64(const std::string& name, u64 dflt) const {
  return flag(name) ? parse_u64_param(name, option(name, "")) : dflt;
}

JsonReport cli_request(const CliArgs& args, const std::string& kind) {
  JsonReport request(kind);
  for (const RequestParam& p : request_params()) {
    const std::string flag = param_flag(p);
    if (!args.flag(flag)) continue;
    set_param(request, p,
              p.type == ParamType::kFlag ? "true" : args.option(flag, ""),
              flag);
  }
  return request;
}

CliArgs cli_parse(const CliCommand& cmd,
                  const std::vector<std::string>& argv) {
  CliArgs args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& word = argv[i];
    if (word.empty() || word[0] != '-') {
      args.positional.push_back(word);
      continue;
    }
    const CliFlag* flag = nullptr;
    for (const CliFlag& f : cmd.flags) {
      if (f.name == word) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      throw Error("unknown flag '" + word + "' for `vscrubctl " + cmd.name +
                  "` (try --help)");
    }
    std::string value;
    if (flag->takes_value) {
      if (i + 1 >= argv.size()) {
        throw Error("flag '" + word + "' needs a " + flag->value_name +
                    " value");
      }
      value = argv[++i];
    }
    args.options.emplace_back(word, std::move(value));
  }
  return args;
}

std::string cli_help(const CliCommand& cmd, const std::string& invocation) {
  std::string out =
      "usage: " + (invocation.empty() ? "vscrubctl " + cmd.name : invocation);
  if (!cmd.positional.empty()) out += " " + cmd.positional;
  if (!cmd.flags.empty()) out += " [flags]";
  out += "\n  " + cmd.help + "\n";
  if (!cmd.flags.empty()) out += "flags:\n";
  for (const CliFlag& f : cmd.flags) {
    std::string lhs = "  " + f.name;
    if (f.takes_value) lhs += " " + f.value_name;
    do lhs += ' '; while (lhs.size() < 22);
    out += lhs + f.help + "\n";
  }
  return out;
}

std::string cli_usage() {
  std::string out = "usage: vscrubctl <command> [flags]\n"
                    "commands (see `vscrubctl <command> --help`):\n";
  for (const CliCommand& cmd : cli_commands()) {
    std::string lhs = "  " + cmd.name;
    if (!cmd.positional.empty()) lhs += " " + cmd.positional;
    while (lhs.size() < 22) lhs += ' ';
    out += lhs + cmd.help + "\n";
  }
  return out;
}

}  // namespace vscrub
