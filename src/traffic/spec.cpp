#include "traffic/spec.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pmsb::traffic {
namespace {

[[noreturn]] void bad(const std::string& text, const std::string& why) {
  throw std::invalid_argument("bad traffic spec \"" + text + "\": " + why);
}

/// The comma-separated numbers after the colon, as doubles.
std::vector<double> parse_args(const std::string& text, const std::string& rest,
                               std::size_t max_args) {
  std::vector<double> out;
  std::stringstream ss(rest);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) bad(text, "empty argument");
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') bad(text, "not a number: \"" + tok + "\"");
    // strtod accepts "nan" and "inf", which every range check below would
    // have to remember to reject; no argument of any kind is meant to be
    // non-finite.
    if (!std::isfinite(v)) bad(text, "not a finite number: \"" + tok + "\"");
    out.push_back(v);
  }
  if (out.size() > max_args) bad(text, "too many arguments");
  return out;
}

double checked_load(const std::string& text, double v) {
  if (!(v >= 0.0 && v <= 1.0)) bad(text, "load must be in [0, 1]");
  return v;
}

}  // namespace

GeneratorSpec GeneratorSpec::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  const std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  if (colon != std::string::npos && rest.empty()) bad(text, "trailing colon");

  GeneratorSpec spec;
  if (name == "uniform" || name == "permutation") {
    spec.kind = name == "uniform" ? Kind::kUniform : Kind::kPermutation;
    const auto args = parse_args(text, rest, 1);
    if (args.size() >= 1) spec.load = checked_load(text, args[0]);
  } else if (name == "hotspot" || name == "hotsenders") {
    spec.kind = name == "hotspot" ? Kind::kHotspot : Kind::kHotSenders;
    const auto args = parse_args(text, rest, 2);
    if (args.empty()) bad(text, "hotspot needs a fraction (" + name + ":FRAC[,LOAD])");
    if (args[0] <= 0.0 || args[0] > 1.0) bad(text, "hotspot fraction must be in (0, 1]");
    spec.hot_fraction = args[0];
    if (args.size() >= 2) spec.load = checked_load(text, args[1]);
  } else if (name == "incast") {
    spec.kind = Kind::kIncast;
    const auto args = parse_args(text, rest, 2);
    if (args.empty()) bad(text, "incast needs a fan-in (incast:FAN[,LOAD])");
    if (args[0] < 1.0 || args[0] != static_cast<unsigned>(args[0]))
      bad(text, "incast fan-in must be a positive integer");
    spec.fan_in = static_cast<unsigned>(args[0]);
    if (args.size() >= 2) spec.load = checked_load(text, args[1]);
  } else if (name == "bursty") {
    spec.kind = Kind::kBursty;
    const auto args = parse_args(text, rest, 2);
    if (args.empty()) bad(text, "bursty needs a load (bursty:LOAD[,MEAN_BURST])");
    spec.load = checked_load(text, args[0]);
    if (args.size() >= 2) {
      if (args[1] < 1.0) bad(text, "mean burst must be >= 1");
      spec.mean_burst = args[1];
    }
  } else if (name == "pareto") {
    spec.kind = Kind::kPareto;
    const auto args = parse_args(text, rest, 3);
    if (args.empty()) bad(text, "pareto needs a load (pareto:LOAD[,SHAPE[,MEAN_BURST]])");
    spec.load = checked_load(text, args[0]);
    if (args.size() >= 2) {
      if (args[1] <= 1.0) bad(text, "pareto shape must be > 1");
      spec.shape = args[1];
    }
    if (args.size() >= 3) {
      if (args[2] < 1.0) bad(text, "mean burst must be >= 1");
      spec.mean_burst = args[2];
    }
  } else {
    bad(text, "unknown kind \"" + name + "\"");
  }
  return spec;
}

std::string GeneratorSpec::describe() const {
  const auto num = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  std::string s;
  switch (kind) {
    case Kind::kUniform: s = "uniform"; break;
    case Kind::kPermutation: s = "permutation"; break;
    case Kind::kHotspot: s = "hotspot:" + num(hot_fraction); break;
    case Kind::kHotSenders: s = "hotsenders:" + num(hot_fraction); break;
    case Kind::kIncast: s = "incast:" + std::to_string(fan_in); break;
    case Kind::kBursty: s = "bursty:" + num(load.value_or(0.0)) + "," + num(mean_burst); break;
    case Kind::kPareto:
      return "pareto:" + num(load.value_or(0.0)) + "," + num(shape) + "," + num(mean_burst);
  }
  if (kind == Kind::kBursty) return s;
  if (load.has_value()) {
    s += (kind == Kind::kHotspot || kind == Kind::kHotSenders || kind == Kind::kIncast)
             ? ","
             : ":";
    s += num(*load);
  }
  return s;
}

std::unique_ptr<DestPattern> GeneratorSpec::make_dest(unsigned n, Rng& rng,
                                                     SelfRule self) const {
  switch (kind) {
    case Kind::kPermutation:
      return std::make_unique<PermutationDest>(random_permutation(n, rng, self));
    case Kind::kHotspot:
      return std::make_unique<HotspotDest>(n, /*hot=*/0, hot_fraction, self);
    case Kind::kHotSenders:
      return std::make_unique<HotSendersDest>(n, /*hot=*/0, hot_fraction, self);
    case Kind::kIncast: {
      const unsigned fan = fan_in == 0 ? n / 2 : (fan_in > n ? n : fan_in);
      return std::make_unique<IncastDest>(n, /*sink=*/0, fan, self);
    }
    case Kind::kUniform:
    case Kind::kBursty:  // burstiness shapes arrivals, not destinations
    case Kind::kPareto:
      return std::make_unique<UniformDest>(n, self);
  }
  return std::make_unique<UniformDest>(n, self);
}

SlotTraffic GeneratorSpec::make_slot_traffic(unsigned n_inputs, double fallback_load,
                                             DestPattern* dests, Rng rng) const {
  const double l = load_or(fallback_load);
  switch (kind) {
    case Kind::kBursty:
      return SlotTraffic::bursty(n_inputs, l, mean_burst, dests, rng);
    case Kind::kPareto:
      return SlotTraffic::bursty_pareto(n_inputs, l, mean_burst, shape, dests, rng);
    default:
      return SlotTraffic(n_inputs, l, dests, rng);
  }
}

}  // namespace pmsb::traffic
