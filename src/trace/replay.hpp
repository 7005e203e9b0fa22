// Tape-and-replay trace sink for the trial batcher.
//
// The sink slot is thread-local (see trace.hpp): when run_batch fans
// trials out across pool workers, a sink installed by the caller is not
// visible on those workers — and must not be, because concurrent trials
// pushing events into one sink would interleave their streams and race
// on its state. Instead run_batch installs one RecordingSink per trial
// on the worker executing it; the tape deep-copies every event
// (including the span-backed fields, whose storage is only valid during
// the callback) and, after all trials complete, replays each tape into
// the caller's sink IN TRIAL ORDER on the calling thread. The caller's
// collector therefore sees exactly the event stream of a serial loop of
// traced runs: per-trial run records never interleave, and the semantic
// fields are byte-identical to the serial schedule.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace valocal::trace {

class RecordingSink final : public TraceSink {
 public:
  void on_run_begin(const RunInfo& info,
                    std::span<const char* const> phases) override {
    Event e;
    e.kind = Kind::kRunBegin;
    e.info = info;
    e.phase_names.assign(phases.begin(), phases.end());
    events_.push_back(std::move(e));
  }

  void on_round(const RoundEvent& round) override {
    Event e;
    e.kind = Kind::kRound;
    e.round = round;
    e.counts.assign(round.phase_charged.begin(),
                    round.phase_charged.end());
    events_.push_back(std::move(e));
  }

  void on_run_end(const RunEndEvent& end) override {
    Event e;
    e.kind = Kind::kRunEnd;
    e.end = end;
    e.load.assign(end.worker_load.begin(), end.worker_load.end());
    events_.push_back(std::move(e));
  }

  void on_phase_begin(const char* name) override {
    Event e;
    e.kind = Kind::kPhaseBegin;
    e.name = name;
    events_.push_back(std::move(e));
  }

  void on_phase_end(const char* name) override {
    Event e;
    e.kind = Kind::kPhaseEnd;
    e.name = name;
    events_.push_back(std::move(e));
  }

  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Pushes the taped events into `sink`, re-pointing every span and
  /// C-string field at this tape's owned storage (valid, as required by
  /// the TraceSink contract, for the duration of each callback — and
  /// for phase names until the tape is cleared).
  void replay(TraceSink& sink) const {
    std::vector<const char*> names;
    for (const Event& e : events_) {
      switch (e.kind) {
        case Kind::kRunBegin: {
          names.clear();
          for (const std::string& s : e.phase_names)
            names.push_back(s.c_str());
          sink.on_run_begin(e.info, names);
          break;
        }
        case Kind::kRound: {
          RoundEvent round = e.round;
          round.phase_charged = e.counts;
          sink.on_round(round);
          break;
        }
        case Kind::kRunEnd: {
          RunEndEvent end = e.end;
          end.worker_load = e.load;
          sink.on_run_end(end);
          break;
        }
        case Kind::kPhaseBegin:
          sink.on_phase_begin(e.name.c_str());
          break;
        case Kind::kPhaseEnd:
          sink.on_phase_end(e.name.c_str());
          break;
      }
    }
  }

 private:
  enum class Kind : std::uint8_t {
    kRunBegin,
    kRound,
    kRunEnd,
    kPhaseBegin,
    kPhaseEnd,
  };

  /// One taped event; only the fields of its Kind are meaningful.
  struct Event {
    Kind kind = Kind::kRound;
    RunInfo info{};
    RoundEvent round{};
    RunEndEvent end{};
    std::string name;                      // phase-span name
    std::vector<std::string> phase_names;  // algorithm phases
    std::vector<std::size_t> counts;       // RoundEvent::phase_charged
    std::vector<ThreadPool::WorkerLoad> load;
  };

  std::vector<Event> events_;
};

}  // namespace valocal::trace
