#include "sim/trace.hpp"

namespace pmsb {

void Tracer::record(const obs::TraceRecord& r) {
  std::fprintf(sink_, "[%6lld] %s\n", static_cast<long long>(r.t),
               obs::format(r).c_str());
}

void Tracer::drain(const obs::TraceBuffer& buf) {
  if (buf.overwritten() > 0) {
    std::fprintf(sink_, "... %llu older trace records overwritten ...\n",
                 static_cast<unsigned long long>(buf.overwritten()));
  }
  buf.for_each([this](const obs::TraceRecord& r) { record(r); });
}

void Tracer::attach_live(obs::TraceBuffer& buf) {
  buf.set_live_drain([this](const obs::TraceRecord& r) { record(r); });
}

}  // namespace pmsb
