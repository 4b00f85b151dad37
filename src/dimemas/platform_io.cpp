#include "dimemas/platform_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::dimemas {

void write_platform(const Platform& p, std::ostream& out) {
  out << "# overlapsim platform\n";
  out << "nodes " << p.num_nodes << "\n";
  out << "model "
      << (p.model == NetworkModelKind::kBus ? "bus" : "fairshare") << "\n";
  out << "bandwidth_mbps " << strprintf("%.17g", p.bandwidth_MBps) << "\n";
  out << "latency_us " << strprintf("%.17g", p.latency_us) << "\n";
  out << "overhead_us " << strprintf("%.17g", p.per_message_overhead_us)
      << "\n";
  out << "buses " << p.num_buses << "\n";
  out << "input_ports " << p.input_ports << "\n";
  out << "output_ports " << p.output_ports << "\n";
  out << "eager_threshold " << p.eager_threshold_bytes << "\n";
  out << "relative_cpu_speed " << strprintf("%.17g", p.relative_cpu_speed)
      << "\n";
  out << "fabric_links " << strprintf("%.17g", p.fabric_capacity_links)
      << "\n";
}

std::string write_platform(const Platform& p) {
  std::ostringstream os;
  write_platform(p, os);
  return os.str();
}

void write_platform_file(const Platform& p, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open platform file for writing: " + path);
  write_platform(p, out);
  if (!out) throw Error("error writing platform file: " + path);
}

Platform read_platform(std::istream& in) {
  Platform p;
  bool have_nodes = false;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    auto fail = [&](const std::string& why) -> void {
      throw Error(strprintf("platform file line %d: %s", line_number,
                            why.c_str()));
    };
    if (tokens.size() != 2) fail("expected 'key value'");
    const std::string& key = tokens[0];
    const std::string& value = tokens[1];
    auto as_int = [&]() {
      const auto parsed = parse_i64(value);
      if (!parsed) fail("bad integer '" + value + "'");
      return static_cast<std::int32_t>(*parsed);
    };
    auto as_double = [&]() {
      const auto parsed = parse_f64(value);
      if (!parsed) fail("bad number '" + value + "'");
      return *parsed;
    };
    if (key == "nodes") {
      p.num_nodes = as_int();
      have_nodes = true;
      if (p.num_nodes <= 0) fail("nodes must be positive");
    } else if (key == "model") {
      if (value == "bus") {
        p.model = NetworkModelKind::kBus;
      } else if (value == "fairshare") {
        p.model = NetworkModelKind::kFairShare;
      } else {
        fail("unknown model '" + value + "' (bus | fairshare)");
      }
    } else if (key == "bandwidth_mbps") {
      p.bandwidth_MBps = as_double();
      if (!std::isfinite(p.bandwidth_MBps) || p.bandwidth_MBps <= 0) {
        fail("bandwidth must be a finite number > 0");
      }
    } else if (key == "latency_us") {
      p.latency_us = as_double();
      if (!std::isfinite(p.latency_us) || p.latency_us < 0) {
        fail("latency must be a finite number >= 0");
      }
    } else if (key == "overhead_us") {
      p.per_message_overhead_us = as_double();
      if (!std::isfinite(p.per_message_overhead_us) ||
          p.per_message_overhead_us < 0) {
        fail("overhead must be a finite number >= 0");
      }
    } else if (key == "buses") {
      p.num_buses = as_int();
      if (p.num_buses < 0) fail("buses must be non-negative");
    } else if (key == "input_ports") {
      p.input_ports = as_int();
      if (p.input_ports <= 0) fail("input_ports must be positive");
    } else if (key == "output_ports") {
      p.output_ports = as_int();
      if (p.output_ports <= 0) fail("output_ports must be positive");
    } else if (key == "eager_threshold") {
      const auto parsed = parse_u64(value);
      if (!parsed) fail("bad unsigned integer '" + value + "'");
      p.eager_threshold_bytes = *parsed;
    } else if (key == "relative_cpu_speed") {
      p.relative_cpu_speed = as_double();
      if (!std::isfinite(p.relative_cpu_speed) || p.relative_cpu_speed <= 0) {
        fail("cpu speed must be a finite number > 0");
      }
    } else if (key == "fabric_links") {
      p.fabric_capacity_links = as_double();
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!have_nodes) throw Error("platform file missing 'nodes'");
  return p;
}

Platform read_platform(const std::string& text) {
  std::istringstream is(text);
  return read_platform(is);
}

Platform read_platform_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open platform file: " + path);
  return read_platform(in);
}

}  // namespace osim::dimemas
