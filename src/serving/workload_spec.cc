#include "serving/workload_spec.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace olympian::serving {

namespace {

[[noreturn]] void Fail(int line, const std::string& what) {
  throw std::invalid_argument("workload spec line " + std::to_string(line) +
                              ": " + what);
}

// Parses all of `token` as a number in [lo, hi]. A trailing character, a
// sign on an unsigned field, an overflow or NaN fails the line.
template <typename T>
T ParseNumber(const std::string& token, T lo, T hi, int line,
              const std::string& key) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    Fail(line, "bad value for '" + key + "': " + token);
  }
  return value;
}

template <typename T>
T AtLeast(T lo, const std::string& token, int line, const std::string& key) {
  return ParseNumber(token, lo, std::numeric_limits<T>::max(), line, key);
}

// Durations count int64 nanoseconds: bounding a millisecond or microsecond
// value by this keeps its conversion from overflowing.
constexpr std::int64_t kMaxNanos = std::numeric_limits<std::int64_t>::max();

// Parses "key=value" into the matching ClientSpec field.
void ApplyClientAttr(ClientSpec& c, const std::string& attr, int line) {
  const auto eq = attr.find('=');
  if (eq == std::string::npos) Fail(line, "expected key=value, got " + attr);
  const std::string key = attr.substr(0, eq);
  const std::string value = attr.substr(eq + 1);
  if (key == "batch") {
    c.batch = AtLeast(1, value, line, key);
  } else if (key == "n") {
    c.num_batches = AtLeast(1, value, line, key);
  } else if (key == "weight") {
    c.weight = AtLeast(1, value, line, key);
  } else if (key == "priority") {
    c.priority = AtLeast(std::numeric_limits<int>::min(), value, line, key);
  } else if (key == "min-share") {
    // [0, 1): the largest double below 1 is the inclusive upper bound.
    c.min_share = ParseNumber(value, 0.0, std::nextafter(1.0, 0.0), line, key);
  } else if (key == "interarrival-ms") {
    c.mean_interarrival = sim::Duration::Millis(
        ParseNumber<std::int64_t>(value, 0, kMaxNanos / 1'000'000, line, key));
  } else {
    Fail(line, "unknown client attribute '" + key + "'");
  }
}

}  // namespace

ServerOptions WorkloadSpec::ToServerOptions() const {
  ServerOptions opts;
  opts.seed = seed;
  opts.num_gpus = num_gpus;
  opts.pool_threads = pool_threads;
  return opts;
}

WorkloadSpec WorkloadSpec::Parse(std::istream& is) {
  WorkloadSpec spec;
  std::string raw;
  int line = 0;
  while (std::getline(is, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string key;
    if (!(ls >> key)) continue;  // blank/comment line
    if (key == "client") {
      ClientSpec c;
      if (!(ls >> c.model)) Fail(line, "client needs a model name");
      std::string attr;
      while (ls >> attr) ApplyClientAttr(c, attr, line);
      spec.clients.push_back(std::move(c));
      continue;
    }
    std::string value;  // empty when missing: every branch rejects that
    ls >> value;
    if (key == "seed") {
      spec.seed = AtLeast<std::uint64_t>(0, value, line, key);
    } else if (key == "gpus") {
      spec.num_gpus = AtLeast(1, value, line, key);
    } else if (key == "pool-threads") {
      spec.pool_threads = AtLeast<std::size_t>(1, value, line, key);
    } else if (key == "policy") {
      if (value.empty()) Fail(line, "policy needs a name");
      spec.policy = value;
    } else if (key == "quantum-us") {
      spec.quantum = sim::Duration::Micros(
          ParseNumber<std::int64_t>(value, 1, kMaxNanos / 1'000, line, key));
    } else {
      Fail(line, "unknown directive '" + key + "'");
    }
    std::string extra;
    if (ls >> extra) Fail(line, key + " takes one value, got '" + extra + "'");
  }
  if (spec.clients.empty()) {
    throw std::invalid_argument("workload spec has no clients");
  }
  return spec;
}

WorkloadSpec WorkloadSpec::ParseString(const std::string& text) {
  std::istringstream is(text);
  return Parse(is);
}

WorkloadSpec WorkloadSpec::LoadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open workload spec " + path);
  return Parse(is);
}

}  // namespace olympian::serving
