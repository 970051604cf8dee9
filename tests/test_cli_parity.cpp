/**
 * @file
 * sipre_cli and the service run every mode through one dispatcher, so
 * `sipre_cli ... --json` must print exactly simResultToJson of
 * runSimRequest for the same request: every mode, one core and a
 * two-workload mix, default and shallow FTQ. Also covers the CLI's
 * caller-supplied trace path (--save-trace / --load-trace) and its
 * exit-2 diagnostics for out-of-range numbers.
 */
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_io.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace sipre
{
namespace
{

struct CliRun
{
    int exit_code = -1;
    std::string out; ///< stdout only
};

CliRun
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(SIPRE_CLI_BINARY) + " " + args + " 2>/dev/null";
    CliRun run;
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        run.out.append(buf, n);
    const int status = ::pclose(pipe);
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

/** The service's answer to `body`, as the CLI prints it. */
std::string
serviceJson(const std::string &body)
{
    service::SimRequest request;
    std::string error;
    EXPECT_TRUE(service::parseSimRequest(body, request, error)) << error;
    return simResultToJson(service::runSimRequest(request)) + "\n";
}

struct ParityCase
{
    const char *mode;
    bool mix;
    const char *ftq; ///< nullptr: the default depth
};

std::vector<ParityCase>
parityMatrix()
{
    std::vector<ParityCase> cases;
    for (const char *mode :
         {"base", "asmdb", "noovh", "metadata", "feedback"})
        for (const bool mix : {false, true})
            for (const char *ftq : {static_cast<const char *>(nullptr), "2"})
                cases.push_back({mode, mix, ftq});
    // An explicit default depth keeps the industry label.
    cases.push_back({"base", false, "24"});
    return cases;
}

class CliParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(CliParity, JsonEqualsRunSimRequest)
{
    const ParityCase &c = GetParam();
    std::string args = std::string("--instructions 20000 --mode ") + c.mode;
    std::string body = std::string(R"({"instructions":20000,"mode":")") +
                       c.mode + "\"";
    if (c.mix) {
        args += " --mix secret_srv12,secret_int_124";
        body += R"(,"mix":["secret_srv12","secret_int_124"])";
    } else {
        args += " --workload secret_srv12";
        body += R"(,"workload":"secret_srv12")";
    }
    if (c.ftq != nullptr) {
        args += std::string(" --ftq ") + c.ftq;
        body += std::string(R"(,"ftq":)") + c.ftq;
    }
    body += "}";

    const CliRun cli = runCli(args + " --json");
    ASSERT_EQ(cli.exit_code, 0) << args;
    EXPECT_EQ(cli.out, serviceJson(body)) << args;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CliParity, ::testing::ValuesIn(parityMatrix()),
    [](const ::testing::TestParamInfo<ParityCase> &param_info) {
        const ParityCase &c = param_info.param;
        return std::string(c.mode) + (c.mix ? "_Mix" : "_OneCore") +
               "_Ftq" + (c.ftq != nullptr ? c.ftq : "Default");
    });

// A saved trace run back through --load-trace is the same run as the
// synthesized one it was saved from.
TEST(CliTrace, LoadedTraceRunsLikeTheSynthesizedOne)
{
    const std::string path = ::testing::TempDir() + "/sipre_parity.trace";
    std::remove(path.c_str());
    const std::string common = "--workload secret_srv12 --instructions 20000";
    ASSERT_EQ(runCli(common + " --save-trace " + path).exit_code, 0);
    for (const char *mode : {"base", "asmdb"}) {
        const std::string run = common + " --json --mode " + mode;
        const CliRun synthesized = runCli(run);
        const CliRun loaded = runCli(run + " --load-trace " + path);
        ASSERT_EQ(synthesized.exit_code, 0) << mode;
        ASSERT_EQ(loaded.exit_code, 0) << mode;
        EXPECT_FALSE(synthesized.out.empty()) << mode;
        EXPECT_EQ(loaded.out, synthesized.out) << mode;
    }
    std::remove(path.c_str());
}

// Numbers outside the service's request bounds are refused up front
// with a structured diagnostic, never an abort.
TEST(CliBounds, OutOfRangeNumbersExitTwo)
{
    for (const char *args :
         {"--ftq 0 --instructions 20000", "--ftq 513 --instructions 20000",
          "--instructions 999", "--instructions 100000001",
          "--cores 0 --instructions 20000", "--cores 9 --instructions 20000",
          "--mix a,b,c,d,e,f,g,h,i --instructions 20000"}) {
        const CliRun cli = runCli(args);
        EXPECT_EQ(cli.exit_code, 2) << args;
        EXPECT_TRUE(cli.out.empty()) << args;
    }
}

} // namespace
} // namespace sipre
