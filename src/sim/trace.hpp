// Human-readable trace formatting. The hot-path trace mechanism is
// obs::TraceBuffer (typed records, no formatting); a Tracer is the
// formatting *drain* over it: attach one as a live drain to watch a run
// cycle by cycle (the quickstart example), or call drain() after the run to
// render whatever the ring buffer retained. "No tracing" is no Tracer.

#pragma once

#include <cstdio>

#include "common/util.hpp"
#include "obs/trace_buffer.hpp"

namespace pmsb {

class Tracer {
 public:
  /// Writes to `sink` (non-null; the Tracer does not own it).
  explicit Tracer(std::FILE* sink) : sink_(sink) {
    PMSB_CHECK(sink_ != nullptr, "tracer needs a sink");
  }

  /// Format one typed trace record (cycle prefix + obs::format rendering).
  void record(const obs::TraceRecord& r);

  /// Render every record the buffer retained, oldest first, noting how many
  /// older records were lost to wraparound.
  void drain(const obs::TraceBuffer& buf);

  /// Convenience: register this Tracer as `buf`'s live drain (records are
  /// formatted as they are pushed).
  void attach_live(obs::TraceBuffer& buf);

 private:
  std::FILE* sink_;
};

}  // namespace pmsb
