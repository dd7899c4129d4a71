/**
 * @file
 * Entry point of the benchmark executable (see bench.hh).
 *
 *   m3d_e2ebench run --spec S --out R [--trace T]
 *       execute the generated spec S, write the result document R
 *       and, when T is given, the traced run's spans to T;
 *   m3d_e2ebench generate --spec S --socket P --out O
 *       the open-loop request generator: replay S's schedule against
 *       the daemon listening on P and write the responses to O.  The
 *       daemon executor spawns this as a separate process.
 *
 * Exit status: 0 when the run completed (its checks may still have
 * failed - that is reported in R), 1 when it could not run, 2 on a
 * usage error.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "bench.hh"

namespace e2e {

void
Result::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

bool
Result::write(const std::string &path, double peak_rss_mb) const
{
    using m3d::report::Json;
    Json doc = Json::object();
    Json setup = Json::array();
    for (const double s : setup_s)
        setup.push(Json::number(s));
    doc.set("setup_s", std::move(setup));
    Json ops = Json::array();
    for (const Sample &s : samples) {
        Json o = Json::object();
        o.set("ms", Json::number(s.ms));
        o.set("weight", Json::number(s.weight));
        ops.push(std::move(o));
    }
    doc.set("samples", std::move(ops));
    doc.set("attempted", Json::number(static_cast<double>(attempted)));
    doc.set("failed", Json::number(static_cast<double>(failed)));
    Json why = Json::array();
    for (const std::string &f : failures)
        why.push(Json::string(f));
    doc.set("failures", std::move(why));
    doc.set("peak_rss_mb", Json::number(peak_rss_mb));
    doc.set("exact", exact);
    doc.set("observed", observed);
    std::ofstream out(path);
    if (!out.is_open())
        return false;
    doc.write(out);
    return static_cast<bool>(out);
}

std::uint64_t
specUint(const report::Json &j, const std::string &key,
         std::uint64_t fallback)
{
    const report::Json *v = j.find(key);
    return v != nullptr && v->isNumber()
        ? static_cast<std::uint64_t>(v->asNumber())
        : fallback;
}

double
specNumber(const report::Json &j, const std::string &key,
           double fallback)
{
    const report::Json *v = j.find(key);
    return v != nullptr && v->isNumber() ? v->asNumber() : fallback;
}

std::string
specString(const report::Json &j, const std::string &key,
           const std::string &fallback)
{
    const report::Json *v = j.find(key);
    return v != nullptr && v->isString() ? v->asString() : fallback;
}

bool
readJson(const std::string &path, report::Json *out, std::string *error)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        *error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    return report::Json::parse(text.str(), out, error);
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    std::ostringstream oss;
    oss << std::hex << std::setw(16) << std::setfill('0') << h;
    return oss.str();
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

} // namespace e2e

namespace {

int
usage()
{
    std::cerr << "usage: m3d_e2ebench run --spec S --out R [--trace T]\n"
                 "       m3d_e2ebench generate --spec S --socket P "
                 "--out O\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::string spec_path, out_path, trace_path, socket_path;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--spec")
            spec_path = value;
        else if (flag == "--out")
            out_path = value;
        else if (flag == "--trace")
            trace_path = value;
        else if (flag == "--socket")
            socket_path = value;
        else
            return usage();
    }
    if (spec_path.empty() || out_path.empty())
        return usage();
    if (mode == "generate") {
        if (socket_path.empty())
            return usage();
        return e2e::generatorMain(spec_path, socket_path, out_path);
    }
    if (mode != "run")
        return usage();

    e2e::RunArgs args;
    std::string err;
    if (!e2e::readJson(spec_path, &args.spec, &err)) {
        std::cerr << "m3d_e2ebench: bad spec: " << err << "\n";
        return 1;
    }
    args.spec_path = spec_path;
    args.out_path = out_path;
    args.trace_path = trace_path;
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0) {
        std::cerr << "m3d_e2ebench: cannot resolve /proc/self/exe\n";
        return 1;
    }
    args.self_exe.assign(self, static_cast<std::size_t>(n));
    const std::string kind = e2e::specString(args.spec, "kind", "");
    try {
        if (kind == "search")
            return e2e::searchMain(args);
        if (kind == "daemon")
            return e2e::daemonMain(args);
    } catch (const std::exception &e) {
        std::cerr << "m3d_e2ebench: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "m3d_e2ebench: unknown spec kind '" << kind << "'\n";
    return 1;
}
