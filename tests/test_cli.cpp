// CLI contract: the declarative command table in core/cli.{h,cpp} is the
// single source of truth for vscrubctl. These tests pin the flag-naming
// convention, reject undeclared flags, and require every subcommand's
// --help output to list every flag it accepts.
#include <gtest/gtest.h>

#include <cctype>

#include "core/cli.h"
#include "sim/simd.h"
#include "svc/config.h"
#include "svc/requests.h"

namespace vscrub {
namespace {

TEST(Cli, EveryCommandHelpListsEveryFlag) {
  for (const CliCommand& cmd : cli_commands()) {
    const std::string help = cli_help(cmd);
    EXPECT_NE(help.find("vscrubctl " + cmd.name), std::string::npos)
        << cmd.name << " help lacks a usage line";
    for (const CliFlag& f : cmd.flags) {
      EXPECT_NE(help.find(f.name), std::string::npos)
          << "`vscrubctl " << cmd.name << " --help` does not list " << f.name;
      EXPECT_FALSE(f.help.empty())
          << cmd.name << " " << f.name << " has no help text";
    }
  }
}

TEST(Cli, UsageScreenListsEveryCommand) {
  const std::string usage = cli_usage();
  for (const CliCommand& cmd : cli_commands()) {
    EXPECT_NE(usage.find(cmd.name), std::string::npos)
        << "usage screen does not list " << cmd.name;
  }
}

TEST(Cli, FlagNamingConventionIsUniform) {
  // Long flags are `--kebab-case` (lowercase letters and single dashes);
  // the only short flag grandfathered in is compile's `-o`.
  for (const CliCommand& cmd : cli_commands()) {
    for (const CliFlag& f : cmd.flags) {
      if (f.name == "-o") continue;
      ASSERT_GE(f.name.size(), 3u) << cmd.name << " flag " << f.name;
      EXPECT_EQ(f.name.substr(0, 2), "--") << cmd.name << " " << f.name;
      for (const char c : f.name.substr(2)) {
        EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) || c == '-')
            << cmd.name << " flag " << f.name
            << " violates the --kebab-case convention";
      }
      EXPECT_EQ(f.takes_value, !f.value_name.empty())
          << cmd.name << " " << f.name << ": value flags need a value name";
    }
  }
}

TEST(Cli, NormalizedFlagsPresentWhereTheyApply) {
  // The PR-4 normalization pass: gang control, scrub-fault toggles and the
  // verdict store use the same spelling everywhere they appear.
  const CliCommand* campaign = cli_find("campaign");
  const CliCommand* recampaign = cli_find("recampaign");
  const CliCommand* mission = cli_find("mission");
  const CliCommand* fleet = cli_find("fleet");
  ASSERT_NE(campaign, nullptr);
  ASSERT_NE(recampaign, nullptr);
  ASSERT_NE(mission, nullptr);
  ASSERT_NE(fleet, nullptr);
  const auto has = [](const CliCommand* cmd, const char* name) {
    for (const CliFlag& f : cmd->flags) {
      if (f.name == name) return true;
    }
    return false;
  };
  for (const CliCommand* cmd : {campaign, recampaign}) {
    EXPECT_TRUE(has(cmd, "--gang-width")) << cmd->name;
    EXPECT_TRUE(has(cmd, "--cache-dir")) << cmd->name;
    EXPECT_TRUE(has(cmd, "--json")) << cmd->name;
  }
  for (const CliCommand* cmd : {mission, fleet}) {
    EXPECT_TRUE(has(cmd, "--scrub-faults")) << cmd->name;
    EXPECT_TRUE(has(cmd, "--json")) << cmd->name;
  }
  // The v3 policy flag: same spelling on every command that runs missions,
  // and the registry is browsable via a dedicated command.
  const CliCommand* submit = cli_find("submit");
  ASSERT_NE(submit, nullptr);
  for (const CliCommand* cmd : {mission, fleet, submit}) {
    EXPECT_TRUE(has(cmd, "--scrub-policy")) << cmd->name;
  }
  EXPECT_NE(cli_find("policies"), nullptr);
}

TEST(Cli, ParseAcceptsDeclaredFlagsOnly) {
  const CliCommand* cmd = cli_find("campaign");
  ASSERT_NE(cmd, nullptr);
  const CliArgs args = cli_parse(
      *cmd, {"lfsrmult", "--sample", "500", "--progress", "--cache-dir", "d"});
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "lfsrmult");
  EXPECT_TRUE(args.flag("--progress"));
  EXPECT_FALSE(args.flag("--exhaustive"));
  EXPECT_EQ(args.option_u64("--sample", 0), 500u);
  EXPECT_EQ(args.option("--cache-dir", ""), "d");
  EXPECT_EQ(args.option_u64("--gang-width", 64), 64u);  // default passthrough

  EXPECT_THROW(cli_parse(*cmd, {"--gangwidth", "8"}), Error);
  EXPECT_THROW(cli_parse(*cmd, {"--observations", "9"}), Error)
      << "beam-only flag must not leak into campaign";
  EXPECT_THROW(cli_parse(*cmd, {"--sample"}), Error)
      << "value flag without a value";
}

TEST(Cli, GangEngineFlagsPresentWhereGangRuns) {
  // The wide-engine knobs ride every command that can dispatch gang runs,
  // with one spelling: --gang-width N, --gang-isa T, --no-gang-plan.
  const auto has = [](const CliCommand* cmd, const char* name) {
    for (const CliFlag& f : cmd->flags) {
      if (f.name == name) return true;
    }
    return false;
  };
  for (const char* name : {"campaign", "recampaign", "submit"}) {
    const CliCommand* cmd = cli_find(name);
    ASSERT_NE(cmd, nullptr) << name;
    EXPECT_TRUE(has(cmd, "--gang-width")) << name;
    EXPECT_TRUE(has(cmd, "--gang-isa")) << name;
    EXPECT_TRUE(has(cmd, "--no-gang-plan")) << name;
  }
  // Every campaign row of the request parameter table is a flag, with the
  // table's spelling, arity and help text, on every command that runs or
  // submits a campaign.
  for (const char* name :
       {"campaign", "recampaign", "submit", "fleet-submit"}) {
    const CliCommand* cmd = cli_find(name);
    ASSERT_NE(cmd, nullptr) << name;
    for (const RequestParam& p : request_params()) {
      if ((p.applies_to & kCampaignParam) == 0) continue;
      const CliFlag* flag = nullptr;
      for (const CliFlag& f : cmd->flags) {
        if (f.name == param_flag(p)) flag = &f;
      }
      ASSERT_NE(flag, nullptr) << name << " lacks " << param_flag(p);
      EXPECT_EQ(flag->help, p.help) << name << " " << flag->name;
      EXPECT_EQ(flag->takes_value, p.type != ParamType::kFlag)
          << name << " " << flag->name;
    }
  }
  const CliCommand* campaign = cli_find("campaign");
  const CliArgs args = cli_parse(
      *campaign, {"lfsrmult", "--gang-width", "256", "--gang-isa", "avx2",
                  "--no-gang-plan"});
  EXPECT_EQ(args.option_u64("--gang-width", 64), 256u);
  EXPECT_EQ(args.option("--gang-isa", "auto"), "avx2");
  EXPECT_TRUE(args.flag("--no-gang-plan"));
  // The --gang-width help names the supported widths so an error message and
  // the help screen never disagree.
  for (const CliFlag& f : campaign->flags) {
    if (f.name == "--gang-width") {
      EXPECT_NE(f.help.find("256"), std::string::npos) << f.help;
      EXPECT_NE(f.help.find("512"), std::string::npos) << f.help;
    }
    if (f.name == "--gang-isa") {
      EXPECT_NE(f.help.find("avx512"), std::string::npos) << f.help;
    }
  }
}

TEST(Cli, GangWidthAndIsaValuesRejectWithTypedErrors) {
  // The errors vscrubctl surfaces for bad --gang-width / --gang-isa values:
  // typed, and self-describing enough to fix the command line from.
  try {
    validate_gang_width(100);
    FAIL() << "width 100 accepted";
  } catch (const GangWidthError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("100"), std::string::npos) << what;
    EXPECT_NE(what.find(supported_gang_widths_list()), std::string::npos)
        << what;
  }
  try {
    parse_simd_isa("sse9");
    FAIL() << "bad ISA accepted";
  } catch (const SimdIsaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sse9"), std::string::npos) << what;
    EXPECT_NE(what.find("scalar"), std::string::npos) << what;
  }
}

TEST(Cli, MalformedValuesRejectWithTypedErrorsNamingTheParameter) {
  const CliCommand* campaign = cli_find("campaign");
  ASSERT_NE(campaign, nullptr);
  // Junk, unit suffixes, signs, overflow and empty values: each a ParamError
  // naming the flag, never a silent 0 or a truncated prefix.
  for (const char* bad : {"junk", "1k", "-1", "+5", " 7", "7 ",
                          "18446744073709551616", ""}) {
    const CliArgs args =
        cli_parse(*campaign, {"lfsr", "--sample", bad, "--threads", bad});
    try {
      (void)cli_request(args, "campaign_request");
      FAIL() << "--sample '" << bad << "' accepted";
    } catch (const ParamError& e) {
      EXPECT_NE(std::string(e.what()).find("--sample"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)args.option_u64("--threads", 0), ParamError) << bad;
  }
  const CliArgs hours = cli_parse(*cli_find("mission"), {"--hours", "2h"});
  EXPECT_THROW((void)cli_request(hours, "mission_request"), ParamError);
  EXPECT_EQ(cli_parse(*campaign, {"--sample", "500"}).option_u64("--sample", 0),
            500u);

  // The same rows arriving in a VSRP1 request: the parser names the key.
  const auto rejects = [](const std::string& json, const char* key) {
    try {
      (void)campaign_options_from(FlatJson::parse(json), 64);
      ADD_FAILURE() << json << " accepted";
    } catch (const ParamError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  rejects(R"({"sample": "junk"})", "sample");
  rejects(R"({"sample": -5})", "sample");
  rejects(R"({"seed": 1e3})", "seed");
  rejects(R"({"chunk": 18446744073709551616})", "chunk");
  rejects(R"({"gang_width": 4294967360})", "gang_width");  // wraps to 64
  rejects(R"({"persistence": "yes"})", "persistence");
  rejects(R"({"exhaustive": true, "sample": "junk"})", "sample");
  EXPECT_EQ(campaign_options_from(FlatJson::parse(R"({"sample": 500})"), 64)
                .sample_bits,
            500u);
}

TEST(Cli, TinyDeviceNamesParseStrictlyAndAreCapped) {
  EXPECT_EQ(device_by_name("tiny:12x16").rows, 12);
  EXPECT_EQ(device_by_name("tiny:12x16").cols, 16);
  // The largest named device (xcv1000, 64x96) bounds a tiny one.
  EXPECT_EQ(device_by_name("tiny:64x96").cols, 96);
  for (const char* bad :
       {"tiny:axb", "tiny:8x", "tiny:x12", "tiny:8", "tiny:+8x12",
        "tiny:8x12junk", "tiny:-8x12", "tiny:68x12", "tiny:8x97",
        "tiny:70000x70000", "tiny:65544x65552"}) {
    try {
      (void)device_by_name(bad);
      ADD_FAILURE() << bad << " accepted";
    } catch (const ParamError& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)device_by_name("xcv9000"), ParamError);
}

TEST(Cli, UnknownCommandIsNull) {
  EXPECT_EQ(cli_find("recalibrate"), nullptr);
  EXPECT_NE(cli_find("recampaign"), nullptr);
}

}  // namespace
}  // namespace vscrub
