// Chrome/Perfetto trace-event export. Builds a JSON document in the legacy
// trace-event format ({"traceEvents": [...]}) that both chrome://tracing and
// ui.perfetto.dev load directly, giving every bench a zoomable timeline of
// its counters and worker activity.
//
// Track mapping convention used across the repo:
//  * pid 1 is the simulation; each track is a (pid, tid) pair named via a
//    thread_name metadata event (set_track_name).
//  * Registry time series render as "C" (counter) events -- one track per
//    component (the metric-name prefix before the first '.'), with that
//    component's series as the event args, so related counters stack in one
//    chart.
//  * Fabric workers render as "X" (complete) slices on their own tracks
//    (active vs. idle spans).
//
// Timestamps are microseconds by convention in the trace-event format; we map
// 1 simulated cycle -> 1 us for counter tracks (wall-clock-derived spans say
// so in their track names). Events must be appended in non-decreasing ts
// order per track; tools/validate_perfetto.py enforces this in CI.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/util.hpp"

namespace pmsb::obs {

class PerfettoTrace {
 public:
  /// Name the (pid, tid) track; emitted as a thread_name metadata event.
  void set_track_name(unsigned tid, const std::string& name, unsigned pid = 1);

  /// Counter event: args render as stacked series in one counter chart.
  void counter(std::int64_t ts, unsigned tid, const std::string& name,
               const std::vector<std::pair<std::string, double>>& series,
               unsigned pid = 1);

  /// Complete event: a slice [ts, ts + dur] on the track.
  void complete(std::int64_t ts, std::int64_t dur, unsigned tid, const std::string& name,
                const std::vector<std::pair<std::string, double>>& args = {},
                unsigned pid = 1);

  /// Instant event (ph "i", scope thread).
  void instant(std::int64_t ts, unsigned tid, const std::string& name, unsigned pid = 1);

  std::size_t event_count() const { return events_.size(); }

  /// The complete JSON document.
  std::string json() const;

  /// Write json() to `path`; PMSB_CHECKs on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Event {
    char ph;  ///< 'C', 'X', 'i', or 'M' (metadata).
    std::int64_t ts = 0;
    std::int64_t dur = 0;  ///< 'X' only.
    unsigned pid = 1;
    unsigned tid = 0;
    std::string name;
    std::string string_arg;  ///< 'M' only: the track name.
    std::vector<std::pair<std::string, double>> args;
  };

  std::vector<Event> events_;
};

}  // namespace pmsb::obs
