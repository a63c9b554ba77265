/**
 * @file
 * Tests of the workload zoo: kernel counts match the paper's Table
 * III, batch scaling behaves, caching is stable.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "models/model_zoo.hh"

namespace krisp
{

/**
 * Prints a zoo parameter by model name. gtest's default byte dump
 * would include the std::string's heap pointer, so the listed test
 * names (and the CTest names discovered from them) would change with
 * every run. Found by argument-dependent lookup, so it lives in the
 * namespace of WorkloadInfo.
 */
void
PrintTo(const WorkloadInfo &info, std::ostream *os)
{
    *os << info.name;
}

namespace
{

const ArchParams arch = ArchParams::mi50();

TEST(ModelZoo, EightWorkloads)
{
    EXPECT_EQ(ModelZoo::workloads().size(), 8u);
}

TEST(ModelZoo, InfoLookup)
{
    const WorkloadInfo &info = ModelZoo::info("albert");
    EXPECT_EQ(info.paperKernelCount, 304u);
    EXPECT_EQ(info.paperRightSizeCus, 12u);
    EXPECT_TRUE(ModelZoo::isModel("vgg19"));
    EXPECT_FALSE(ModelZoo::isModel("gpt4"));
}

TEST(ModelZoo, UnknownModelIsFatal)
{
    ModelZoo zoo(arch);
    EXPECT_EXIT(zoo.kernels("nope", 32),
                ::testing::ExitedWithCode(1), "unknown model");
}

TEST(ModelZoo, CacheReturnsSameSequence)
{
    ModelZoo zoo(arch);
    const auto &a = zoo.kernels("alexnet", 32);
    const auto &b = zoo.kernels("alexnet", 32);
    EXPECT_EQ(&a, &b);
    const auto &c = zoo.kernels("alexnet", 16);
    EXPECT_NE(&a, &c);
}

/** Per-model Table III parameterised checks. */
class ZooModelTest : public ::testing::TestWithParam<WorkloadInfo>
{
  protected:
    ModelZoo zoo{arch};
};

TEST_P(ZooModelTest, KernelCountMatchesPaper)
{
    const auto &info = GetParam();
    EXPECT_EQ(zoo.kernels(info.name, 32).size(),
              info.paperKernelCount);
}

TEST_P(ZooModelTest, CountIndependentOfBatch)
{
    const auto &info = GetParam();
    for (unsigned batch : {1u, 8u, 16u, 32u}) {
        EXPECT_EQ(zoo.kernels(info.name, batch).size(),
                  info.paperKernelCount)
            << info.name << " at batch " << batch;
    }
}

TEST_P(ZooModelTest, DescriptorsWellFormed)
{
    const auto &info = GetParam();
    for (const auto &k : zoo.kernels(info.name, 32)) {
        ASSERT_TRUE(k);
        EXPECT_FALSE(k->name.empty());
        EXPECT_GT(k->numWorkgroups, 0u);
        EXPECT_GT(k->wgThreads, 0u);
        EXPECT_LE(k->wgThreads, 1024u);
        EXPECT_GT(k->wgDurationNs, 0.0);
        EXPECT_GE(k->bytes, 0.0);
        EXPECT_GE(k->saturationWgsPerCu, 1u);
    }
}

TEST_P(ZooModelTest, WorkScalesWithBatch)
{
    const auto &info = GetParam();
    auto total_work = [&](unsigned batch) {
        double w = 0;
        for (const auto &k : zoo.kernels(info.name, batch))
            w += k->numWorkgroups * k->wgDurationNs + k->bytes / 64.0;
        return w;
    };
    // Doubling the batch should substantially increase total work
    // (not necessarily exactly 2x due to tile quantisation).
    EXPECT_GT(total_work(32), 1.5 * total_work(8));
}

TEST_P(ZooModelTest, UsesMultipleKernelClasses)
{
    const auto &info = GetParam();
    std::set<KernelClass> classes;
    for (const auto &k : zoo.kernels(info.name, 32))
        classes.insert(k->klass);
    EXPECT_GE(classes.size(), 4u) << info.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooModelTest,
    ::testing::ValuesIn(ModelZoo::workloads()),
    [](const ::testing::TestParamInfo<WorkloadInfo> &info) {
        return info.param.name;
    });

TEST(ModelZoo, AlbertIsTransformerShaped)
{
    ModelZoo zoo(arch);
    unsigned gemms = 0, softmaxes = 0;
    for (const auto &k : zoo.kernels("albert", 32)) {
        if (k->klass == KernelClass::Gemm)
            ++gemms;
        if (k->klass == KernelClass::Softmax)
            ++softmaxes;
    }
    // 12 layers x 6 GEMMs + embeddings/pooler/classifier.
    EXPECT_GE(gemms, 75u);
    EXPECT_EQ(softmaxes, 13u); // 12 attention + 1 classifier
}

TEST(ModelZoo, VggIsConvHeavy)
{
    ModelZoo zoo(arch);
    unsigned convs = 0;
    for (const auto &k : zoo.kernels("vgg19", 32)) {
        if (k->klass == KernelClass::Sp3AsmConv ||
            k->klass == KernelClass::WinogradConv) {
            ++convs;
        }
    }
    EXPECT_EQ(convs, 16u);
}

TEST(ModelZoo, ShufflenetUsesDepthwise)
{
    ModelZoo zoo(arch);
    unsigned dw = 0;
    for (const auto &k : zoo.kernels("shufflenet", 32))
        if (k->klass == KernelClass::DepthwiseConv)
            ++dw;
    // 13 basic + 2x3 downsample depthwise convs.
    EXPECT_EQ(dw, 19u);
}

TEST(ModelZoo, ZeroBatchIsFatal)
{
    ModelZoo zoo(arch);
    EXPECT_EXIT(zoo.kernels("albert", 0),
                ::testing::ExitedWithCode(1), "non-zero");
}

} // namespace
} // namespace krisp
