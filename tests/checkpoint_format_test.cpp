// Checkpoint format pins: a golden version-1 blob recorded from the
// version-1 encoder must keep decoding to the state it was taken from and
// restore into a filter that steps bit-identically, and the checksum must
// refuse every single-bit flip and every truncation of a fixed blob.
// Restores also run through the snapshot constructor.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "serve/checkpoint.hpp"
#include "sim/ground_truth.hpp"

namespace {

using namespace esthera;

using ArmModel = models::RobotArmModel<float>;
using ArmFilter = core::DistributedParticleFilter<ArmModel>;

/// encode_checkpoint<float> of the version-1 encoder for golden_source()
/// after kGoldenSteps steps (m=4, N=2, MTGP; 5 432 bytes). Recorded once;
/// never regenerate it from a newer encoder. The particle payload went
/// through libm (logf, sincosf, expf), so a platform whose libm rounds
/// differently sees a different source state, exactly as for the
/// KernelIdentity table.
constexpr const char* kGoldenV1Hex =
    "4553435001000000040000000000000004000000000000000200000000000000090000000000"
    "000003000000000000000400000000000000e2040000000000006afa246c666b59a6711e9a22"
    "b36388a56f324325c78c403aa05db8aaf2f28da93162a749d5f0737675e49677ff6bedd2b1ee"
    "36ea6ae029e94822a04df48bb415aa7cd72974638124b07560e81911eba275a3505edc607bc1"
    "53a045f99d85c4e8786872950d0cc9bfb5743ce69ce265c522797f694cecac83e69bce3827ae"
    "c832775ad8be6e3b27c74ae74374384beddf99875d9f82f20a9559505833c848cea0a8438817"
    "afbb553fa8e87265eb011818f3ca97f48283f2df076916f3b9d71f333791d7a68faa89495727"
    "fb2f159296e911e57b9dbabd56af6b69d2d101f77a4d45d80218fe6cb253293215170f90d9a5"
    "11f9d1f6626cd79c59e9bcd45ec0e8232cf0530828ddba923b9a6187237049872be855d3e82b"
    "786c1046a7872743df2e13cd4294903cdd048da8941a87cf0d714e8c19757477a0188a5c6655"
    "26be55df613c6455b3ddf45c3fe1819112ee2cb80093bc107f789ab2c03a7f9ec242276a10cf"
    "df976cde829e3b7c3e63e1874dae19e64dd996a59dcf111255965b71ddea7d9a6189a5b6be10"
    "0e824471951a0739bcfbbed2b2491b666eb5b13c2b7b5732f80d846292348da1215ddf1b4f5f"
    "e357e6c0f2fa26402a79136e4e4febe61b743d324fc52410533b2d0dd9727bf6326eed0e4dff"
    "742a95afa2f3d9e555b549209a1d4fa03debcabbe99c463d0f242962a6edb79a19d778bd551e"
    "cf4e990b6731cfff76ef0fee65a97aaf48047c087be0f86a1985e0806380a162e39b8aa0cc77"
    "2b57fddab63e3a441f950b3e0011ccd42e985ca3056aea8cead1fcfd908eadc7b167943ff9d9"
    "701505249e6523bb39cf96d8176a2b10b850f542474becd637d5ef8e8984e04ae846a137805e"
    "1a2c6c5f1e834349a65ed35b205eab712505928b00a3672b4303bbfe062d6883929b7153f643"
    "24e92b55a95565ed63fd7ef6edca9da27ae836823b2f8b9a8703a9fb73d64f5dde21ce5d9ca8"
    "873817e2ec2a7c8a754dc14696380690111feff328c810c49e4e33904e07d32172788fdf28da"
    "70d024de8f38ef075adc6da6216a73fdcb1c58471cdd39c633dc8ac6dbc309b55b5e16179861"
    "af22d0e77d4e52e7bca869d9b7a5e997c4cacc1ff7152d31cb65a9e6e8150578bf545009d837"
    "d02462ab193bc4b219a42a41629bbcc9d0d0fb2a18861a5d1bc6edf704364c6a89241a9ac817"
    "3eb7f5bab1476179773f9c46ffd2ea3ad0d9f5046d097231ced29926111779a7fb03059e2abd"
    "d1ebb58674fe8f9c21ac4a23285dd1db3c2a5f7ed583db4918c361e30c07da1b812ce9e5d75a"
    "829d7b0384f5ba45e99a3f20a4cb3aa8f84cfd09543d6ea10e46b1a82188e6d8bf5b82dcdb51"
    "bcf2a16856142a8d25f4752bc514b75ed94ad831463178516aac296541393cacc28a8e1454d0"
    "fce011f9bb806abbb6677cd0929c6f4aff091b368eb4924038930edc4c7d4a716be5458c6b39"
    "a3fa3f9d534c3565bfb76e153ef6cfbb105a5d0c6ad8d9b59a087098f7bd2b19196e2cb70f78"
    "7969b423c8a191a1074571dffda742d538bd61910b788e569e79bd1a2d8ce490a117f7df99da"
    "ed085a8191be6cc4609c19855566106291cf1c8574b74db060f9b92e3b5b8f75bb3f7303994f"
    "01c45f79e4b756fc2e01b94d2acfbae33d35525c13ccf90877facbc6936f86ff37e359431224"
    "475633f16548e0c6ce38bde8698e7abc9edbf0b50a13acf9d0dc02b1038eadeaa7fd88768f4f"
    "5f4ef4e333214ac28365e946ea0f82dc540e74f6d3936c0a572c17febcb66333a9a25af58558"
    "e5c2b797577be5edee269291a01a4a433796c34851f4c8f4c69cf109092486d7a4e57abcfc1e"
    "8f674b31f7346396bb9b64bd9bd65adfc301568da13a1158838765f17de2c61ec8aaf78c2b49"
    "55523bd608e7293ff6e9a975fb8b0bbba79803a8fda4682df090c931ecc1407dccd7d4d72db2"
    "6f43cfcc148e7902e5c8c758d119b043807c984365d2c82e241f5dac0b596aff6527102b2085"
    "606860af1df188ad287b277706d6cc9a3deadc7a3190d792063303952df23d136a37af1a16b3"
    "54b9c2225376f4826905966ea8fae691ab891dd12eaa92b43d7c9309082984b7e99aa668f8c0"
    "71bafb9305ef426c94baed50eb4f2ec6ab7d3bb45defee773a71868665a61d01f8482ea8b8c7"
    "e85ae8f0f10b0d917f4bc2b57c1f31ca7adebd6d78781c60b0a7d80f719aa55018f3f0b55ec9"
    "bafd59ce2ebad0450b7c6be9b488da6ef47a685fc1280d3270bcbefa31bb6fd5459dc3c44b20"
    "d24206e1fd601893465f4da33c3cee3ad06d85c997f398d7656bf9c263b924cd752ff4723c21"
    "98369bb1f9292b839952f6844547bcd2c5bde5b3658e17fae8c914eaa2d2ba1f8b92bc551a2b"
    "c4b03e05729d3049bec1336859052ab828922d387fbc5c0b40444f27e34dfcf5f944eb57ed71"
    "e2351a8a2cf72636ed730ff1ef935cb03e3128a723f0aacac5319246703db4a8a3b432d0d5e1"
    "936a20b8c8f012e19dc33883bf2c0f1a1b851eb82f4734b97c39aae91aa52180504d324f20c3"
    "90b9fa1d763c33c4ece9cb9f23f5ce0a0a26adc84065f0eada0b1ccb0ebf424556ff533166d1"
    "d89b76a5a3cf6386ef035cca34283b729d3ba830a0ad15d5bfe71862ee352c5103fa69395acc"
    "896bca9b723e61a1ac6a8f92cea00866da8b0bf6added605cb16d89db7130ddf1182c53dee8e"
    "a40e82a87047dc8943c947e888d4eb2fb50b57fd7340a5911a4da8ebf91644715bb014306cd3"
    "ac86d67b57a4713777b52005eef216df68ab99f0db0cec8460d11d922c6a87eb2e2bc9cad2a9"
    "61c6791c5fdd444acd16cc58ab5b0dea78a0e2ce71dfdd4d6a48e487e441bf2426bfd40ddd6d"
    "c804da438c830ac4b6d56bf081efc85c32c329b33531ac167b0c6aa15f7d59b1e38a26f76897"
    "e1ce286046a36cf824b78737c95c30db5a2171441adc3293ed2a413b301eb3a0f3db96d8c376"
    "b7edad9b2ebe36fa6b1ca578fef999cda78f26a21ff14e4796727bde7957bb160d332735b8b7"
    "fa59c59e05ec5cfac04d45d88fa14f1771f28c1a70ab2b679d1d0afa511c1ae56d4863ea07b5"
    "030fa2737bffb398867e5cfbf030e6878038dbd2e35b56f0477b1482e89c1b161607d5452112"
    "5832a0d99ad02aa45f28ad5d1731616910e2f9c8c957140a438a6b8987a5560db72025573067"
    "218a0dbd74fb1d53dddbcb91000978b962466717370a52e20227c9d52c1db502d01ca420b242"
    "d17478fcfcc8c08bfed080eb6adab1bcc0459365c18d9835cf338207de603bd3dc2d381ac779"
    "4591eec9a0f4485db0afb1c095477704bb4609f540fc3db718f3a0a2913768b3bb06f406fa25"
    "2102ab7a032b0a52bba380ccef4e94b79f6d4cbca68502670d1ae89c4420b3a521265cab31a6"
    "90dcd074a5a0258469508af35fabe7bd3d30ff28566a631d7db04bbe96d37ab6ff0dbe264986"
    "fc6298155bea63e21bc7cde35e62e024b570b23cdfb222d6f97e97f14f957e041d3f7ab2237a"
    "e6193bdcb23c5a24b927ef13e60cb400000048e926676e50f4a8d93ada199e30dca84f5e41f2"
    "2d6c48703412de30c86bbb37b9da0b0d65d1a410578e04e39be4ed78d9fcaa146550eb1d73ef"
    "c113ab1f101320ab2825cc3e36cf136f3e1f64daa59f8de2896b5d5ba7a3a0365b8a7ee977fd"
    "4aee9580ebeed1bfbb8c2fbeaef3ddfe9355c461a9a430eac5b0b9b02edf9638e8be1919a625"
    "0c343b981859e085f21271b3c924fdab76afee522b9c2154ea491ddbac92a90ee040bb526349"
    "9db5e243779c509432f3c55d598ee19ec7d73035785a793e35e26ae2348f5ae1642ab0683878"
    "1c2ac7aaba96561a9c90b576851513019b456325e2acb93a98645f0e1bc6ec1a9755fc6321a2"
    "1992f9ae87becee1d29da3bcae5d24a4e112323572471aa39e104ab55c448a52a4a4f95788ba"
    "03447ed3e01b7b4bd853a9ed570e3a380750195ad68bc8a9d08520602de32e985f09f86b1703"
    "b511bc359a687051c9f1331f6cb402dad862aa92313b5fa2e3e25be578e9544972a6227450cd"
    "6056560ad3a69cfd9456b8e1ae1f502e84b0dbc6422a655a1f6f9740ecaf1edf044a345ade3a"
    "3f364acf8097cdc6c94d15ef5e21de13b8e5cd66b3fcf3bc4d345fa100092b7c57f9306a69ec"
    "7e2fc79b87edd4c8e66372ba2cb4400ae40a998a2ebec5dca5d6af9a9dca98497c8ad523fb41"
    "40da4dc95465a1eb317780644ca42a4d273c5339753d5c31aefbcb74c447ab3128ba1e0e6030"
    "ea892a192d10656577eb7c15f66c508a7b8a7950c9c10665f8a3fc8b928588934668b3c72a00"
    "c7ff4e844a299d0219f6bbcafefd1014771329552a03f1ddbe6d9cbbd92e8c1d30c517b1d403"
    "395cd06e485eae72256dbd6bcca0df9f470b12de92f323c3435ae81d2e013f5dbc28dea88524"
    "b27219b0a30f979548e21b40cfbe336ba4b7f9ba6cfeca96e9b4dff42ea99e9296b41cee5b54"
    "556206883035080879a75407feb812c225da5a4947919f7aa17be1f78fc8d695d9071fa0459d"
    "556d9a628d8763739111407863cd6539a9b8da52460b182c4346caf8c5326e1236c45994b793"
    "68430769b194c2f994d3b3a15a3411cf39ab27e5a40e42570abe07c73062ac54de23f91e37ff"
    "48a3c2e34af4c08ac44712a94adfa91162d99c8e10b449087ad3dd29414c0bcc15a6067f9798"
    "0d849441fa9551b249675d8f5fb0df0b0dfd43caab8328029c198e1ffeedcc1dadc04baca531"
    "d2710373360a4a481c5aa96b3d7fbb727d4002efed6b7ef00530e167932723ce206dfbdd8bdf"
    "608976e5bb30b738846c534e22c10e5eefe0734c90d290eb8b9327247ee443fb5198ce22747a"
    "ab03ee6027d00d85dfc04c090e6154b4b7aa28af78a2a8bad04a928d9bd66b7dcdaa21a3ca17"
    "f89f78c4e3c74b68b11d869848e6a92eab7b1b9fed499f7ba7d1618bbd79199db6205d87710d"
    "f257a8b3e7e4ec95d0dea4c9a4c051e089cf9cb0e4d4838917301f0a86a9128eac82050068a7"
    "949d37590f660a68f5f616abbfbf39c41bf32a0323614d94f0190d11d97f89e693d6cbb71621"
    "809bba2058775bb8d49182f4bff4e55233112cb294d8ace29f4eae9cd19a557acdec3e3b2df8"
    "bc3c2086fcb77bd39317c7a9d767297b8dd2be91e794aca0c73700699e568fdb1106cb9382f2"
    "3314f94d1b32569f3ceda79f7ab846ee0d48f6cd2079ab21d035c864f86923d91a61c403eb9f"
    "80505e91d58426101be2c2d98de78f0037ddd11aa53e3c9de5b3fb4adcc61916a18276fd6e2c"
    "bf5349332e16720ed3a96ec595b86672ad8cd4f715bff666da1ed8dd4ff3fb2d1b709f33d207"
    "efd325f310e7246f9bfc4042d4887f314006b2d725e9ea615b9d80389fa0a3dc4ca25e319d6c"
    "c50b0f7eae4ecdd9a51a3e2d9d6daf9fc182b870a7df4562de9d573c6973d37ca8e5048ab88c"
    "a1dbc6b0e921b6bbf68356efbf58273b55dd914f84fa9748fb29885dbf1baf9bc38b54285fa0"
    "cf2e3c6e043c036b7f245d2da6987a0748a6aeec5c6ba331547cd363111351f9107ed985174b"
    "62a3b81082d9eb9f0f4d767bb03557a8e77bcca542a64411fa2dd1493466bfb1bab731a33c9c"
    "50ca0db0688cebd46c85458164a371f1c0ce685234554a2348ac9c69d22d4940c7c6c5c1402a"
    "5bb5f3e3caa4db54742dd76eda61554b13694a31267de934f3a4b56e1b9d97e65f25e0361516"
    "5e6830d6053e8ec21eb30cd8d699625868ce29858a9ba034537f433f5abe8729153400b84e96"
    "a4479271d670199639c1173fb040bbe6fdc712b74c6157c92a6c07425f7cee6329b3a65ecaac"
    "54963543fbc6259588b5f18d1ce2a829c5e98f6b3f3f73c4a93df61d5c266b97c82d44fd5386"
    "c5db45a3151ef3ca17fec83755f749aabd2c0dd481cb92264d85774919a7581b92151e1ad142"
    "367fbcf71cf525c2b11903c943f6c5ede7790afda63037e7cd6bcb085c426149ba7526791962"
    "2a14c452d38b8977e0307e302305697af643260b2fe8ba30c629560d915a28c8c24434133f99"
    "1c529c86fa21f2d4b960ecfada571243ae0fde2dc4a342f8fa8906c56e6ce8fcd1d83896bf7f"
    "9c61a29161a4206bc31bd939efb6c44b0ce2f5dd26f288dc4f776e2829d58cff9535842eb4f1"
    "b1e5b41add231456bcc3cf888d6b49cfda19332e3d780a839db2ab14ad5182f7019a209a3a7f"
    "3c141b87e49b8c98afd88032daa8b537a371eb32b53edb3f5bdfd154b234be1926d263f85316"
    "8e4c2a26f46e2e86f13ca73f40ad87365c2367cfe78de95851f38f73b01c9e2f700b45c95ae7"
    "766644351e34b194b556a8a7027621d9619609beabb2b77837350c17214d8646e8dba7a1f6f1"
    "039666351503cad6b2b098c9bbaf63aa302c88f8552da561971f5e597eb5ed77b0d7f41e8215"
    "b890a42312fa7cd3b2a7d0e8e5739f1528239b77221d6774c16f07150e9ec3bec4eda382f121"
    "9d0ebc94de7ad0a29b1beedbc5b5a108468cdc6a945db9520abc528e9b8ac11ed8dc6cf3d783"
    "8ceeee76c9c1158d0332c68eb482062eae383ec57e2dca13d36a9095707a8cbaea2a7359d3d2"
    "091a874b073b5e065d1fc0c153507778ab819ca6ddc566d5215357761f7368e9c8d3fc0e3d98"
    "0b88c7015f6031cdbd8ed720c01b3687bc78982d4d2b0aceba282c6e93048bc5dd89cd383d77"
    "4f959043de66e2cb72d65b42a4ed70f48a4ba962ab9f81696bcf30804e2aa5e3336dc7e9269b"
    "f2f2f28870d703c7fa357f1760d644d899cd4ee13f24dec6dc69108f08a74c3a39709a530b65"
    "adcc4a436484cc4c6cf2a9e592a95b1eeaead27eded1efac37e8c839be081fc4ddbaf3acb1df"
    "f553719493fd508d79e29d1fe0d6199509493a798e4124bf611de350781239573205c60e2854"
    "2655c2091f4eed43dd3f46c16a6cbbacbf03c3a9f03e4ea4cfc30c25f3c40631e04bd170ba89"
    "ec67d41de032623f2116b31ec31f353e59d166bfd01693af18eb75a9b9322136c677fbb9d9a8"
    "2446715b02b344c173082026f3319ad47dd9a3712454aba710ae02c4500bd37b3af11eede35b"
    "78cdbde2aaf2b400000092daa8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3e"
    "a24c943e6762243f92daa8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c"
    "943e6762243f92daa8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c943e"
    "6762243f92daa8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c943e6762"
    "243f92daa8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c943e6762243f"
    "92daa8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c943e6762243f92da"
    "a8bcda30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c943e6762243f92daa8bc"
    "da30613e3ed53a3c2e8d213eafc7443e31bf6f407d529e3ea24c943e6762243f000000000000"
    "000000000000000000000000000000000000000000000000000092daa8bcda30613e3ed53a3c"
    "2e8d213eafc7443e31bf6f407d529e3ea24c943e6762243f1ce35bc27836902586b69914";

constexpr std::size_t kGoldenSteps = 3;

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

/// Observation stream of the scenario the golden blob was recorded on.
struct Traffic {
  sim::RobotArmScenario scenario;
  std::vector<std::vector<float>> z;
  std::vector<std::vector<float>> u;

  explicit Traffic(std::size_t steps) {
    scenario.reset(17);
    for (std::size_t k = 0; k < steps; ++k) {
      const auto step = scenario.advance();
      z.emplace_back(step.z.begin(), step.z.end());
      u.emplace_back(step.u.begin(), step.u.end());
    }
  }
};

ArmModel golden_model() {
  sim::RobotArmScenario scenario;
  scenario.reset(17);
  return scenario.make_model<float>();
}

core::FilterConfig golden_config() {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 4;
  cfg.num_filters = 2;
  cfg.seed = 2013;
  cfg.workers = 1;
  return cfg;
}

/// The filter the golden blob was taken from, stepped to the same point.
ArmFilter golden_source(const Traffic& traffic) {
  ArmFilter pf(golden_model(), golden_config());
  for (std::size_t k = 0; k < kGoldenSteps; ++k) pf.step(traffic.z[k], traffic.u[k]);
  return pf;
}

std::vector<float> step_estimates(ArmFilter& pf, const Traffic& traffic) {
  std::vector<float> out;
  for (std::size_t k = pf.step_index(); k < traffic.z.size(); ++k) {
    pf.step(traffic.z[k], traffic.u[k]);
    out.insert(out.end(), pf.estimate().begin(), pf.estimate().end());
  }
  return out;
}

bool rejected(const std::vector<std::uint8_t>& blob) {
  try {
    (void)serve::decode_checkpoint<float>(blob);
  } catch (const serve::CheckpointError&) {
    return true;
  }
  return false;
}

TEST(CheckpointFormat, GoldenV1BlobDecodesToRecordedState) {
  const auto golden = from_hex(kGoldenV1Hex);
  ASSERT_EQ(golden.size(), 5432u);
  EXPECT_EQ(serve::checkpoint_version(golden), 1u);
  const auto decoded = serve::decode_checkpoint<float>(golden);
  const Traffic traffic(kGoldenSteps);
  const auto expected = golden_source(traffic).export_state();
  EXPECT_EQ(decoded.step, kGoldenSteps);
  EXPECT_EQ(decoded.particles_per_filter, 4u);
  EXPECT_EQ(decoded.num_filters, 2u);
  EXPECT_EQ(decoded.state_dim, expected.state_dim);
  EXPECT_EQ(decoded.rng.generator, prng::Generator::kMtgp);
  EXPECT_EQ(decoded.rng.groups, 2u);
  EXPECT_EQ(decoded.rng.round, expected.rng.round);
  EXPECT_EQ(decoded.rng.mt_words, expected.rng.mt_words);
  EXPECT_EQ(decoded.state, expected.state);
  EXPECT_EQ(decoded.log_weights, expected.log_weights);
  EXPECT_EQ(decoded.estimate, expected.estimate);
  EXPECT_EQ(decoded.estimate_log_weight, expected.estimate_log_weight);
}

TEST(CheckpointFormat, GoldenV1BlobRestoresBitIdentically) {
  const Traffic traffic(kGoldenSteps + 8);
  ArmFilter source = golden_source(traffic);
  const auto expected = step_estimates(source, traffic);

  const auto state = serve::decode_checkpoint<float>(from_hex(kGoldenV1Hex));
  ArmFilter imported(golden_model(), golden_config());
  imported.import_state(state);
  ASSERT_EQ(imported.step_index(), kGoldenSteps);
  EXPECT_EQ(step_estimates(imported, traffic), expected);
  ArmFilter built(golden_model(), golden_config(), std::make_shared<device::Device>(1),
                  state);
  ASSERT_EQ(built.step_index(), kGoldenSteps);
  EXPECT_EQ(step_estimates(built, traffic), expected);
}

TEST(CheckpointFormat, EverySingleBitFlipIsRejected) {
  const Traffic traffic(kGoldenSteps);
  const auto blob = serve::encode_checkpoint<float>(golden_source(traffic).export_state());
  ASSERT_FALSE(rejected(blob));
  for (const auto& source : {blob, from_hex(kGoldenV1Hex)}) {
    for (std::size_t bit = 0; bit < 8 * source.size(); ++bit) {
      auto flipped = source;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(rejected(flipped)) << "version " << serve::checkpoint_version(source)
                                     << ": flip of bit " << bit << " accepted";
    }
  }
}

// checkpoint_checksum on its own, over every length up to 75 bytes: every
// tail size, lane position and padding case. A flipped bit anywhere, or a
// differing length (even by zero bytes), must change the sum.
TEST(CheckpointFormat, ChecksumSeesEveryBitAndTheLength) {
  std::vector<std::uint8_t> bytes(75);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(37 * i + 11);
  }
  const std::vector<std::uint8_t> zeros(bytes.size() + 1, 0);
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    const std::span<const std::uint8_t> data(bytes.data(), n);
    const std::uint64_t sum = serve::checkpoint_checksum(data);
    EXPECT_NE(serve::checkpoint_checksum(std::span(zeros).first(n)),
              serve::checkpoint_checksum(std::span(zeros).first(n + 1)))
        << n;
    if (n > 0) {
      EXPECT_NE(serve::checkpoint_checksum(data.first(n - 1)), sum) << n;
    }
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      auto flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_NE(serve::checkpoint_checksum(std::span(flipped).first(n)), sum)
          << "length " << n << ", bit " << bit;
    }
  }
}

TEST(CheckpointFormat, EveryTruncationIsRejected) {
  const Traffic traffic(kGoldenSteps);
  const auto blob = serve::encode_checkpoint<float>(golden_source(traffic).export_state());
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<long>(keep));
    ASSERT_TRUE(rejected(cut)) << "prefix of " << keep << " bytes accepted";
  }
}

// A re-signed blob whose generator code no longer matches its MT words
// (an MTGP blob relabelled Philox, or the reverse) could never be
// restored; the decoder refuses it instead of handing it to a filter.
TEST(CheckpointFormat, RngWordCountMustFitTheGeneratorCore) {
  const Traffic traffic(kGoldenSteps);
  for (const auto generator : {prng::Generator::kMtgp, prng::Generator::kPhilox}) {
    core::FilterConfig cfg = golden_config();
    cfg.generator = generator;
    ArmFilter pf(golden_model(), cfg);
    auto blob = serve::encode_checkpoint<float>(pf.export_state());
    blob[12] = generator == prng::Generator::kMtgp ? 1 : 0;  // generator code
    const std::size_t payload = blob.size() - 8;
    const std::uint64_t sum = serve::checkpoint_checksum(std::span(blob).first(payload));
    for (int b = 0; b < 8; ++b) {
      blob[payload + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(sum >> (8 * b));
    }
    EXPECT_TRUE(rejected(blob)) << "generator " << static_cast<int>(generator);
  }
}

TEST(CheckpointFormat, UnknownVersionsAreRefused) {
  const Traffic traffic(kGoldenSteps);
  const auto blob = serve::encode_checkpoint<float>(golden_source(traffic).export_state());
  for (const std::uint32_t version : {0u, 3u, 0xffffffffu}) {
    auto other = blob;
    for (int b = 0; b < 4; ++b) {
      other[4 + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(version >> (8 * b));
    }
    EXPECT_EQ(serve::checkpoint_version(other), version);
    try {
      (void)serve::decode_checkpoint<float>(other);
      ADD_FAILURE() << "version " << version << " accepted";
    } catch (const serve::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version " + std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
