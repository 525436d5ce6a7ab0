#include "svc/config.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace vscrub {

u64 parse_u64_param(const std::string& name, const std::string& text,
                    u64 max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      errno != 0 || *end != '\0') {
    throw ParamError(name + " is not a number: '" + text + "'");
  }
  if (parsed > max) {
    throw ParamError(name + " out of range (max " + std::to_string(max) +
                     "): '" + text + "'");
  }
  return static_cast<u64>(parsed);
}

double parse_double_param(const std::string& name, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      errno != 0 || *end != '\0' || !std::isfinite(parsed)) {
    throw ParamError(name + " is not a number: '" + text + "'");
  }
  return parsed;
}

u64 parse_config_u64(const std::string& name, const std::string& text,
                     u64 max) {
  try {
    return parse_u64_param(name, text, max);
  } catch (const ParamError& e) {
    throw ServiceConfigError(e.what());
  }
}

std::map<std::string, u64> parse_sched_weights(const std::string& spec) {
  std::map<std::string, u64> weights;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) {
      throw ServiceConfigError(
          "serve: --sched-weight entries are NAME=W, comma separated: '" +
          spec + "'");
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ServiceConfigError(
          "serve: --sched-weight entry missing NAME=W: '" + entry + "'");
    }
    const std::string name = entry.substr(0, eq);
    const u64 weight =
        parse_config_u64("serve: --sched-weight", entry.substr(eq + 1));
    if (weight == 0) {
      throw ServiceConfigError(
          "serve: --sched-weight weight must be >= 1 for '" + name + "'");
    }
    weights[name] = weight;
  }
  return weights;
}

const std::vector<ServiceConfigFlag>& service_config_flags() {
  static const std::vector<ServiceConfigFlag> flags = {
      {"--socket", true, "PATH",
       "unix socket path (default /tmp/vscrubd.sock)"},
      {"--tcp-port", true, "P", "also listen on TCP loopback port P"},
      {"--queue", true, "N", "admission queue capacity (default 16)"},
      {"--executors", true, "N", "concurrent requests (default 2)"},
      {"--threads", true, "N",
       "shared injection pool workers (0 = hardware)"},
      {"--cache-dir", true, "DIR",
       "process-wide verdict store shared by every client"},
      {"--retry-after", true, "MS", "busy-reply retry hint (default 250)"},
      {"--checkpoint-every", true, "N",
       "checkpoint served campaigns every N chunks (0 = off)"},
      {"--send-timeout", true, "MS",
       "reply write-progress deadline before a client that stops reading "
       "is dropped (default 10000)"},
      {"--sched-weight", true, "NAME=W",
       "fair-share weight for tenant NAME (repeatable / comma list; "
       "default 1)"},
      {"--preempt", true, "N",
       "preempt a served campaign after N chunks when another tenant "
       "waits; it checkpoints and resumes later (0 = off)"},
      {"--spool-dir", true, "DIR",
       "checkpoint directory when --cache-dir is unset"},
      {"--stats-json", true, "FILE",
       "write service stats JSON after the drain"},
  };
  return flags;
}

void ServiceConfig::set(const std::string& flag, const std::string& value) {
  const auto number = [&flag, &value](u64 max) {
    return parse_config_u64("serve: " + flag, value, max);
  };
  if (flag == "--socket") {
    socket_path = value;
  } else if (flag == "--tcp-port") {
    tcp_port = static_cast<u16>(number(65535));
  } else if (flag == "--queue") {
    queue_capacity = static_cast<std::size_t>(number(~u64{0}));
  } else if (flag == "--executors") {
    executors = static_cast<unsigned>(number(4096));
  } else if (flag == "--threads") {
    pool_threads = static_cast<unsigned>(number(4096));
  } else if (flag == "--cache-dir") {
    cache_dir = value;
  } else if (flag == "--retry-after") {
    retry_after_ms = number(~u64{0});
  } else if (flag == "--checkpoint-every") {
    checkpoint_every_chunks = number(~u64{0});
  } else if (flag == "--send-timeout") {
    send_timeout_ms = static_cast<int>(number(std::numeric_limits<int>::max()));
  } else if (flag == "--sched-weight") {
    for (const auto& [name, weight] : parse_sched_weights(value)) {
      sched_weights[name] = weight;
    }
  } else if (flag == "--preempt") {
    preempt_chunks = number(~u64{0});
  } else if (flag == "--spool-dir") {
    spool_dir = value;
  } else if (flag == "--stats-json") {
    stats_json = value;
  } else {
    throw ServiceConfigError("serve: unknown flag " + flag);
  }
}

void ServiceConfig::validate() const {
  if (socket_path.empty()) {
    throw ServiceConfigError("serve: --socket path must not be empty");
  }
  // sockaddr_un::sun_path is 108 bytes on Linux; reject here with a typed
  // error instead of failing at bind time.
  if (socket_path.size() >= 108) {
    throw ServiceConfigError("serve: --socket path too long (max 107): " +
                             socket_path);
  }
  if (queue_capacity == 0) {
    throw ServiceConfigError("serve: --queue must be >= 1");
  }
  if (executors == 0) {
    throw ServiceConfigError("serve: --executors must be >= 1");
  }
  if (send_timeout_ms <= 0) {
    throw ServiceConfigError("serve: --send-timeout must be >= 1 ms");
  }
  if (max_conn_backlog_bytes == 0) {
    throw ServiceConfigError("serve: connection backlog bound must be >= 1");
  }
  if (preempt_chunks > 0 && checkpoint_dir().empty()) {
    throw ServiceConfigError(
        "serve: --preempt needs a checkpoint directory; pass --cache-dir "
        "or --spool-dir");
  }
  for (const auto& [name, weight] : sched_weights) {
    if (name.empty() || weight == 0) {
      throw ServiceConfigError(
          "serve: --sched-weight entries need a nonempty NAME and W >= 1");
    }
  }
}

}  // namespace vscrub
