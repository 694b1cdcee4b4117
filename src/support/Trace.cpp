//===- support/Trace.cpp ---------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <cassert>
#include <cstdarg>
#include <cstdio>

using namespace dgsim;

const char *dgsim::traceCategoryName(TraceCategory C) {
  switch (C) {
  case TraceCategory::Transfer:
    return "transfer";
  case TraceCategory::Selection:
    return "selection";
  case TraceCategory::Replication:
    return "replication";
  case TraceCategory::Network:
    return "network";
  case TraceCategory::Monitor:
    return "monitor";
  case TraceCategory::Fault:
    return "fault";
  case TraceCategory::Health:
    return "health";
  }
  assert(false && "unknown trace category");
  return "?";
}

static uint32_t bit(TraceCategory C) {
  return 1u << static_cast<unsigned>(C);
}

void TraceLog::enable(TraceCategory C) { EnabledMask |= bit(C); }

void TraceLog::enableAll() {
  EnabledMask = (1u << NumTraceCategories) - 1u;
}

void TraceLog::disable(TraceCategory C) { EnabledMask &= ~bit(C); }

bool TraceLog::enabled(TraceCategory C) const {
  return (EnabledMask & bit(C)) != 0;
}

void TraceLog::recordf(TraceLog *Log, SimTime Time, TraceCategory C,
                       const char *Fmt, ...) {
  if (!Log || !Log->enabled(C))
    return;
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Log->Events.push_back(TraceEvent{Time, C, Buf});
}

std::vector<const TraceEvent *>
TraceLog::byCategory(TraceCategory C) const {
  std::vector<const TraceEvent *> Result;
  for (const TraceEvent &E : Events)
    if (E.Category == C)
      Result.push_back(&E);
  return Result;
}

std::string TraceLog::str() const {
  std::string Out;
  char Buf[64];
  for (const TraceEvent &E : Events) {
    std::snprintf(Buf, sizeof(Buf), "[%10.3f] %-11s ", E.Time,
                  traceCategoryName(E.Category));
    Out += Buf;
    Out += E.Message;
    Out += '\n';
  }
  return Out;
}
