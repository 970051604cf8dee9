#include "golden.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

namespace perfbench
{

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
resultText(const sipre::SimResult &result)
{
    std::ostringstream os;
    sipre::writeSimResultText(os, result);
    return os.str();
}

std::string
recordText(const sipre::WorkloadRecord &rec)
{
    std::ostringstream os;
    os << rec.name << '\n';
    for (const sipre::SimResult *r :
         {&rec.cons, &rec.industry, &rec.asmdb_cons, &rec.asmdb_cons_ideal,
          &rec.asmdb_ind, &rec.asmdb_ind_ideal})
        sipre::writeSimResultText(os, *r);
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << rec.static_bloat_cons << ' ' << rec.dynamic_bloat_cons << ' '
       << rec.static_bloat_ind << ' ' << rec.dynamic_bloat_ind << ' '
       << rec.insertions_ind << ' ' << rec.plan_min_distance_ind << '\n';
    return os.str();
}

std::string
campaignKey(const std::string &workload, std::uint64_t instructions)
{
    return "campaign&workload=" + workload +
           "&instructions=" + std::to_string(instructions);
}

bool
GoldenTable::load(const std::string &path, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot read golden digests " + path;
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        GoldenDigests d;
        if (!(ls >> key >> d.text >> d.json)) {
            error = path + ":" + std::to_string(lineno) + ": garbled row";
            return false;
        }
        rows_[key] = d;
    }
    if (rows_.empty()) {
        error = "no golden digests in " + path;
        return false;
    }
    return true;
}

bool
GoldenTable::save(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "# perfbench golden digests: <key> <fnv1a64 of campaign text> "
          "<fnv1a64 of JSON>\n"
       << "# Regenerate with: python3 perfbench/run.py --write-golden\n";
    for (const auto &[key, d] : rows_)
        os << key << ' ' << d.text << ' ' << d.json << '\n';
    return static_cast<bool>(os);
}

const GoldenDigests *
GoldenTable::find(const std::string &key) const
{
    const auto it = rows_.find(key);
    return it == rows_.end() ? nullptr : &it->second;
}

void
GoldenTable::put(const std::string &key, GoldenDigests digests)
{
    rows_[key] = std::move(digests);
}

} // namespace perfbench
