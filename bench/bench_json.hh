/**
 * @file
 * Minimal JSON report writer for the perf-trajectory file
 * BENCH_core.json. Several benches contribute sections to one file
 * (ns/op, ticks/sec, backend speedups), so the writer re-reads the
 * existing file and merges: the on-disk format is a fixed two-level
 * object { "section": { "key": number } } and the parser accepts
 * exactly that shape (anything else starts the file fresh).
 */

#ifndef SYNC_BENCH_BENCH_JSON_HH
#define SYNC_BENCH_BENCH_JSON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace synchro::bench
{

class JsonReport
{
  public:
    explicit JsonReport(std::string path = "BENCH_core.json")
        : path_(std::move(path))
    {
        load();
    }

    void
    set(const std::string &section, const std::string &key,
        double value)
    {
        sections_[section][key] = value;
    }

    /** Merge-write the report; returns false on I/O failure. */
    bool
    write() const
    {
        std::ofstream out(path_, std::ios::trunc);
        if (!out)
            return false;
        out << "{\n";
        bool first_sec = true;
        for (const auto &[sec, kv] : sections_) {
            if (!first_sec)
                out << ",\n";
            first_sec = false;
            out << "  \"" << sec << "\": {\n";
            bool first_key = true;
            for (const auto &[key, value] : kv) {
                if (!first_key)
                    out << ",\n";
                first_key = false;
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.6g", value);
                out << "    \"" << key << "\": " << buf;
            }
            out << "\n  }";
        }
        out << "\n}\n";
        return bool(out);
    }

    const std::map<std::string, std::map<std::string, double>> &
    sections() const
    {
        return sections_;
    }

  private:
    void
    load()
    {
        std::ifstream in(path_);
        if (!in)
            return;
        std::stringstream ss;
        ss << in.rdbuf();
        parse(ss.str());
    }

    // Parses only the shape write() emits; on any surprise the
    // partial parse is dropped and the report starts fresh.
    void
    parse(const std::string &text)
    {
        size_t pos = 0;
        auto skip = [&] {
            while (pos < text.size() &&
                   std::isspace(uint8_t(text[pos])))
                ++pos;
        };
        auto expect = [&](char c) {
            skip();
            if (pos >= text.size() || text[pos] != c)
                return false;
            ++pos;
            return true;
        };
        auto string_lit = [&](std::string &out) {
            skip();
            if (pos >= text.size() || text[pos] != '"')
                return false;
            size_t end = text.find('"', pos + 1);
            if (end == std::string::npos)
                return false;
            out = text.substr(pos + 1, end - pos - 1);
            pos = end + 1;
            return true;
        };

        std::map<std::string, std::map<std::string, double>> parsed;
        if (!expect('{'))
            return;
        skip();
        while (pos < text.size() && text[pos] != '}') {
            std::string sec;
            if (!string_lit(sec) || !expect(':') || !expect('{'))
                return;
            skip();
            while (pos < text.size() && text[pos] != '}') {
                std::string key;
                if (!string_lit(key) || !expect(':'))
                    return;
                skip();
                char *endp = nullptr;
                double v = std::strtod(text.c_str() + pos, &endp);
                if (endp == text.c_str() + pos)
                    return;
                pos = size_t(endp - text.c_str());
                parsed[sec][key] = v;
                skip();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    skip();
                }
            }
            if (!expect('}'))
                return;
            skip();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                skip();
            }
        }
        sections_ = std::move(parsed);
    }

    std::string path_;
    std::map<std::string, std::map<std::string, double>> sections_;
};

} // namespace synchro::bench

#endif // SYNC_BENCH_BENCH_JSON_HH
