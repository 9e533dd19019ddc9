// Figure 11 and Table 10: AFRecordSamples() timings and record throughput.
//
// "Record requests were scheduled to hit entirely in the server's record
// buffer (and not block)... The jumps at approximately 8K bytes are due to
// 'chunking' performed in the client library... Each request completes
// synchronously - a 16K byte request therefore takes the same time as two
// independent 8K byte requests." (CRL 93/8 Section 10.1.2)
//
// This client library still chunks at 8K but pipelines the chunks: up to
// 16 leave in one write and their replies are collected in order, so a
// request past 8K adds a chunk's data cost, not a round trip.
//
// Paper Table 10 (record throughput, KB/s): alpha 4400, alpha/alpha 980,
// alpha/mips 760, mips 2200, mips/alpha 770, mips/mips 580.
//
// Flags: --json out.json (machine-readable stats, including p50/p95/p99),
// --transports inproc[,unix,...] (restrict the transport axis).
#include "bench/harness.h"

using namespace af;
using namespace af::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const std::vector<size_t> sizes = {64,   256,  1024,  4096,  8192,
                                     8256, 9216, 16384, 32768, 65536};
  const std::vector<std::string> transports =
      args.TransportsOr({"inproc", "unix", "tcp", "tcp-wan"});

  std::printf("Figure 11: AFRecordSamples() timings (usec per request, mean of N)\n");
  std::vector<std::string> columns = {"bytes"};
  std::vector<std::unique_ptr<Env>> envs;
  uint16_t port = 17810;
  for (const std::string& transport : transports) {
    auto env = MakeEnv(transport, port);
    port += 4;  // tcp-wan uses port and port+1; keep live servers apart
    if (env == nullptr) {
      return 1;
    }
    columns.push_back(transport);
    envs.push_back(std::move(env));
  }
  PrintHeader("", columns);

  JsonReport report("bench_record");
  std::vector<double> throughput(envs.size());
  for (size_t size : sizes) {
    PrintCell(std::to_string(size));
    for (size_t e = 0; e < envs.size(); ++e) {
      AFAudioConn& conn = *envs[e]->conn;
      auto ac = conn.CreateAC(0, 0, ACAttributes{});
      if (!ac.ok()) {
        return 1;
      }
      std::vector<uint8_t> buf(size);
      const int iters = size >= 32768 ? 200 : 500;
      // Entirely in the past: served from the record buffer without
      // blocking (regions older than the buffer come back as silence,
      // which costs the server the same memory traffic).
      const ATime anchor =
          conn.GetTime(0).value() - static_cast<ATime>(size) - 16;
      const Stats stats = MeasureMicros(iters, [&] {
        auto r = ac.value()->RecordSamples(anchor, buf, /*block=*/false);
        if (!r.ok()) {
          std::exit(1);
        }
      });
      PrintCell(stats.mean_us, "%.1f");
      report.Add(envs[e]->name, "record", size, stats);
      if (size == 32768) {
        throughput[e] = size / stats.mean_us;  // bytes per usec == MB/s
      }
      conn.FreeAC(ac.value());
      conn.Flush();
    }
    EndRow();
  }

  std::printf("\nTable 10: record throughput (slope at 32K requests)\n");
  PrintHeader("", {"configuration", "MB/s"});
  for (size_t e = 0; e < envs.size(); ++e) {
    PrintCell(envs[e]->name);
    PrintCell(throughput[e], "%.1f");
    EndRow();
  }
  std::printf("\npaper: 0.58-4.4 MB/s with local > networked; expect the same ordering\n"
              "(inproc > unix > tcp). The paper's steps at 8K multiples came from one\n"
              "synchronous round trip per chunk; pipelined chunks remove them, so a\n"
              "32K record costs one round trip plus its data, even on tcp-wan.\n");
  for (auto& env : envs) {
    ServerSide side;
    if (FetchServerSide(*env->conn, &side)) {
      report.SetServer(env->name, side);
    }
  }
  if (!args.json_path.empty() && !report.WriteFile(args.json_path)) {
    return 1;
  }
  return 0;
}
