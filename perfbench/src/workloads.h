#pragma once

/// \file workloads.h
/// The three workloads. Each has an end-to-end run (tracing and `obs` off)
/// that adds the contract metrics p50_ms, tail_ms, throughput_per_s and
/// setup_s to the result, and a traced section that adds the per-layer
/// metrics of the layers it drives. `budget_s` is the measuring time.

#include "common.h"

namespace perfbench {

void run_decide_openloop(const Options& opt, Result& result);
void run_metro_replay(const Options& opt, Result& result);
void run_hourly_replan(const Options& opt, Result& result);

void trace_decide_openloop(const Options& opt, double budget_s,
                           Result& result);
void trace_metro_replay(const Options& opt, double budget_s, Result& result);
void trace_hourly_replan(const Options& opt, double budget_s,
                         Result& result);

}  // namespace perfbench
