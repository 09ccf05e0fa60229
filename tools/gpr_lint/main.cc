/**
 * @file
 * gpr_lint CLI.  Typical invocations:
 *
 *     gpr_lint --compile-commands=build/compile_commands.json
 *     gpr_lint src tools
 *     gpr_lint --rules=D1,D3 src/core/orchestrator.cc
 *
 * Exit status: 0 when clean, 1 when any finding fired, 2 on usage or
 * I/O errors.  Findings print as `file:line: [Dn] message`; pass
 * --output=FILE to also write them to a report file (CI artifact).
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "gpr_lint/lint.hh"

namespace {

int
usage(std::ostream& os)
{
    os << "usage: gpr_lint [options] [file-or-dir ...]\n"
          "  --compile-commands=FILE  lint every TU of a CMake compile "
          "database\n"
          "  --rules=D1,D2,...        run only the named rules (default "
          "all)\n"
          "  --output=FILE            also write findings to FILE\n"
          "  --list-rules             print the rule catalogue and exit\n"
          "  --quiet                  no summary line, findings only\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gpr_lint;

    LintOptions options;
    std::vector<std::string> inputs;
    std::string compile_commands;
    std::string output_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--help" || arg == "-h")
            return usage(std::cout), 0;
        if (arg == "--list-rules") {
            for (std::size_t r = 0; r < kNumRules; ++r) {
                const Rule rule = static_cast<Rule>(r);
                std::cout << ruleName(rule) << "  " << ruleSummary(rule)
                          << "\n";
            }
            return 0;
        }
        if (arg.rfind("--compile-commands=", 0) == 0) {
            compile_commands = value("--compile-commands=");
        } else if (arg.rfind("--rules=", 0) == 0) {
            options.enabled = 0;
            std::string list = value("--rules=");
            std::size_t pos = 0;
            while (pos < list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                const Rule r =
                    ruleFromName(list.substr(pos, comma - pos));
                if (r == Rule::NumRules) {
                    std::cerr << "gpr_lint: unknown rule '"
                              << list.substr(pos, comma - pos) << "'\n";
                    return 2;
                }
                options.enabled |=
                    1u << static_cast<std::uint32_t>(r);
                pos = comma + 1;
            }
        } else if (arg.rfind("--output=", 0) == 0) {
            output_path = value("--output=");
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "gpr_lint: unknown option " << arg << "\n";
            return usage(std::cerr);
        } else {
            inputs.push_back(arg);
        }
    }

    try {
        std::vector<std::string> files;
        if (!compile_commands.empty())
            files = filesFromCompileCommands(compile_commands);
        for (std::string& f : expandInputs(inputs))
            files.push_back(std::move(f));
        // The compile database and explicit inputs may overlap — and
        // disagree on spelling (the database is absolute, a walked
        // `src` is relative), so dedup on the canonical path while
        // keeping the first-seen spelling for reporting.
        {
            std::vector<std::string> unique;
            std::vector<std::string> seen;
            for (std::string& f : files) {
                std::error_code ec;
                std::string canon =
                    std::filesystem::weakly_canonical(f, ec).string();
                if (ec || canon.empty())
                    canon = f;
                if (std::find(seen.begin(), seen.end(), canon) !=
                    seen.end())
                    continue;
                seen.push_back(std::move(canon));
                unique.push_back(std::move(f));
            }
            files.swap(unique);
        }
        if (files.empty()) {
            std::cerr << "gpr_lint: no input files (pass paths or "
                         "--compile-commands)\n";
            return 2;
        }

        std::vector<Finding> findings;
        for (const std::string& f : files) {
            std::vector<Finding> fs = lintFile(f, options);
            findings.insert(findings.end(),
                            std::make_move_iterator(fs.begin()),
                            std::make_move_iterator(fs.end()));
        }

        std::ofstream report;
        if (!output_path.empty()) {
            report.open(output_path);
            if (!report) {
                std::cerr << "gpr_lint: cannot write " << output_path
                          << "\n";
                return 2;
            }
        }
        for (const Finding& f : findings) {
            const std::string line =
                f.file + ":" + std::to_string(f.line) + ": [" +
                std::string(ruleName(f.rule)) + "] " + f.message;
            std::cout << line << "\n";
            if (report.is_open())
                report << line << "\n";
        }
        if (!quiet) {
            std::cout << "gpr_lint: " << files.size() << " files, "
                      << findings.size() << " finding"
                      << (findings.size() == 1 ? "" : "s") << "\n";
        }
        if (report.is_open())
            report << "gpr_lint: " << files.size() << " files, "
                   << findings.size() << " findings\n";
        return findings.empty() ? 0 : 1;
    } catch (const gpr::FatalError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
