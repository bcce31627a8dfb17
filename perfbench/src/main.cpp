// Repository benchmark program: runs one named workload for a fixed time,
// verifies its outputs against serial core::decompose, and prints every
// metric with its unit and sample count. The last stdout line is
// "RESULT <json>", which perfbench/run.py turns into the benchmark's
// one-line result.
//
//   perfbench --workload <decompose|stream|service_hot|shard_cold>
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "core/filters.hpp"
#include "core/kernels.hpp"

extern char** environ;

namespace perfbench {

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
        }
    }
    return 0.0;
}

std::size_t nproc() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

CpuTicks cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    CpuTicks t;
    in >> cpu;
    if (cpu != "cpu") return t;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        if (!(in >> v)) return CpuTicks{};
        t.total += v;
        if (i == 7) t.steal = v;
    }
    return t;
}

std::vector<bool> quiet_stretches(const std::vector<double>& steal) {
    const std::size_t n = steal.size();
    std::vector<bool> keep(n);
    std::size_t quiet = 0;
    for (std::size_t i = 0; i < n; ++i) {
        keep[i] = steal[i] <= kQuietSteal;
        quiet += keep[i] ? 1 : 0;
    }
    const std::size_t least = (n + 15) / 16;
    if (quiet >= least) return keep;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
    keep.assign(n, false);
    for (std::size_t i = 0; i < least; ++i) keep[order[i]] = true;
    return keep;
}

bool QuietTimeline::quiet_at(Clock::time_point t) const {
    const auto it = std::upper_bound(ends.begin(), ends.end(), t);
    if (it == ends.begin() || it == ends.end()) return false;
    return quiet[static_cast<std::size_t>(it - ends.begin()) - 1];
}

StealSampler::StealSampler() {
    ends_.push_back(Clock::now());
    thread_ = std::thread([this] {
        CpuTicks last = cpu_ticks();
        std::unique_lock lk(mu_);
        while (!stop_) {
            cv_.wait_for(lk, std::chrono::duration<double>(kStretchS), [this] { return stop_; });
            const CpuTicks now = cpu_ticks();
            ends_.push_back(Clock::now());
            steal_.push_back(steal_share(last, now));
            last = now;
        }
    });
}

StealSampler::~StealSampler() {
    if (thread_.joinable()) (void)finish();
}

QuietTimeline StealSampler::finish() {
    {
        std::lock_guard lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    QuietTimeline q;
    q.ends = ends_;
    q.quiet = quiet_stretches(steal_);
    return q;
}

bool pyramids_equal(const wavehpc::core::Pyramid& a, const wavehpc::core::Pyramid& b) {
    if (a.depth() != b.depth() || !(a.approx == b.approx)) return false;
    for (std::size_t l = 0; l < a.depth(); ++l) {
        if (!(a.levels[l].lh == b.levels[l].lh) || !(a.levels[l].hl == b.levels[l].hl) ||
            !(a.levels[l].hh == b.levels[l].hh)) {
            return false;
        }
    }
    return true;
}

}  // namespace perfbench

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string json_number(double v) {
    if (!(v == v) || v > 1e300 || v < -1e300) return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

bool parse_args(int argc, char** argv, perfbench::RunArgs& a) {
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0') return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0)) return false;
        } else if (flag == "--trace") {
            if (val != "0" && val != "1") return false;
            a.trace = val == "1";
            have_trace = true;
        } else if (flag == "--out-dir") {
            a.out_dir = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && have_trace;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunArgs args;
    if (!parse_args(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                     "[--out-dir DIR]\n";
        return 2;
    }

    perfbench::Report rep;
    rep.config["workload"] = args.workload;
    rep.config["seed"] = std::to_string(args.seed);
    rep.config["seconds"] = json_number(args.seconds);
    rep.config["trace"] = args.trace ? "1" : "0";
    rep.config["nproc"] = std::to_string(perfbench::nproc());
    rep.config["dwt_kernel_resolved"] = wavehpc::core::to_string(
        wavehpc::core::resolve_dwt_kernel(wavehpc::core::DwtKernel::Auto,
                                          wavehpc::core::FilterPair::daubechies(8)));
    std::string knobs;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "WAVEHPC_", 8) != 0) continue;
        if (!knobs.empty()) knobs += ' ';
        knobs += *e;
    }
    rep.config["wavehpc_env"] = knobs.empty() ? "(none)" : knobs;

    const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
    try {
        if (args.workload == "decompose") {
            perfbench::run_decompose(args, rep);
        } else if (args.workload == "stream") {
            perfbench::run_stream(args, rep);
        } else if (args.workload == "service_hot") {
            perfbench::run_service_hot(args, rep);
        } else if (args.workload == "shard_cold") {
            perfbench::run_shard_cold(args, rep);
        } else {
            std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: workload " << args.workload << " threw: " << e.what() << "\n";
        return 3;
    }

    rep.set("host.steal_share", perfbench::steal_share(ticks0, perfbench::cpu_ticks()), "share");

    std::cout << "workload " << args.workload << " seed " << args.seed << " trace "
              << (args.trace ? 1 : 0) << "\n";
    for (const auto& [k, v] : rep.config) std::cout << "  config " << k << " = " << v << "\n";
    for (const auto& [name, m] : rep.metrics) {
        std::printf("  %-40s %16.6g %-8s n=%zu\n", name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
    }
    std::cout << "  verification: " << (rep.correct ? "PASS" : "FAIL") << " (attempted "
              << rep.attempted << ", failed " << rep.failed << ")\n";
    for (const auto& f : rep.check_failures) {
        std::cerr << "perfbench: workload " << args.workload << " failed check " << f << "\n";
    }

    std::ostringstream js;
    js << "{\"correct\": " << (rep.correct ? "true" : "false")
       << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : rep.metrics) {
        js << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"value\": "
           << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit)
           << "\", \"samples\": " << m.samples << "}";
        first = false;
    }
    js << "}, \"config\": {";
    first = true;
    for (const auto& [k, v] : rep.config) {
        js << (first ? "" : ", ") << "\"" << json_escape(k) << "\": \"" << json_escape(v)
           << "\"";
        first = false;
    }
    js << "}, \"check_failures\": [";
    first = true;
    for (const auto& f : rep.check_failures) {
        js << (first ? "" : ", ") << "\"" << json_escape(f) << "\"";
        first = false;
    }
    js << "]}";
    std::cout << "RESULT " << js.str() << std::endl;
    return rep.correct ? 0 : 1;
}
