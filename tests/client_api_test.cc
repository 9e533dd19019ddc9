// Client-library surface not covered elsewhere: the event-queue calls
// (Tables 3/4), synchronous mode, after-functions, and failure behavior
// when clients vanish mid-operation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "client/audio_context.h"
#include "clients/server_runner.h"

namespace af {
namespace {

class ClientApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.with_phone = true;
    config.realtime = false;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    conn_ = conn.take();
  }

  // Raises a scripted burst of phone events (2 DTMF digits + a loop edge).
  void RaisePhoneEvents() {
    conn_->SelectEvents(runner_->phone_id(), kAllEventsMask);
    conn_->Sync();
    runner_->RunOnLoop([this] {
      auto& phone = *runner_->phone();
      phone.HookSwitch(true);
      phone.line().SetExtensionOffHook(true);
      phone.line().FarEndSendDigits(100, "42");
    });
    // Let the line audio play out so the DTMF detector sees it.
    for (int i = 0; i < 8; ++i) {
      runner_->manual_clock()->Advance(500);
      runner_->RunOnLoop([this] { runner_->phone()->Update(); });
    }
  }

  std::unique_ptr<ServerRunner> runner_;
  std::unique_ptr<AFAudioConn> conn_;
};

TEST_F(ClientApiTest, PendingAndEventsQueued) {
  EXPECT_EQ(conn_->Pending(), 0);
  RaisePhoneEvents();
  // HookSwitch + PhoneLoop + DTMF '4' + DTMF '2'.
  EXPECT_EQ(conn_->EventsQueued(AFAudioConn::QueuedMode::kAfterReading), 4);
  // Already-read count doesn't touch the wire.
  EXPECT_EQ(conn_->EventsQueued(AFAudioConn::QueuedMode::kAlready), 4);
  AEvent event;
  ASSERT_TRUE(conn_->NextEvent(&event).ok());
  EXPECT_EQ(conn_->Pending(), 3);
}

TEST_F(ClientApiTest, NextEventBlocksUntilDelivery) {
  conn_->SelectEvents(runner_->phone_id(), kHookSwitchMask);
  conn_->Sync();
  std::thread scripter([this] {
    SleepMicros(100000);
    runner_->RunOnLoop([this] { runner_->phone()->HookSwitch(true); });
  });
  AEvent event;
  const uint64_t start = HostMicros();
  ASSERT_TRUE(conn_->NextEvent(&event).ok());
  EXPECT_GE(HostMicros() - start, 80000u);
  EXPECT_EQ(event.type, EventType::kHookSwitch);
  scripter.join();
}

TEST_F(ClientApiTest, IfEventFamilySelectsByPredicate) {
  RaisePhoneEvents();
  const auto is_dtmf = [](const AEvent& e) { return e.type == EventType::kPhoneDTMF; };

  // Peek does not dequeue.
  AEvent peeked;
  ASSERT_TRUE(conn_->PeekIfEvent(&peeked, is_dtmf));
  EXPECT_EQ(peeked.detail, '4');
  EXPECT_EQ(conn_->EventsQueued(AFAudioConn::QueuedMode::kAlready), 4);

  // CheckIfEvent dequeues the first match, skipping non-matches.
  AEvent taken;
  ASSERT_TRUE(conn_->CheckIfEvent(&taken, is_dtmf));
  EXPECT_EQ(taken.detail, '4');
  EXPECT_EQ(conn_->EventsQueued(AFAudioConn::QueuedMode::kAlready), 3);

  // IfEvent (blocking) finds the next one immediately.
  AEvent second;
  ASSERT_TRUE(conn_->IfEvent(&second, is_dtmf).ok());
  EXPECT_EQ(second.detail, '2');

  // No more DTMF: CheckIfEvent declines without blocking.
  AEvent none;
  EXPECT_FALSE(conn_->CheckIfEvent(&none, is_dtmf));
}

TEST_F(ClientApiTest, EventMaskFiltersDelivery) {
  conn_->SelectEvents(runner_->phone_id(), kPhoneLoopMask);  // loop only
  conn_->Sync();
  runner_->RunOnLoop([this] {
    runner_->phone()->HookSwitch(true);  // hook event: not selected
    runner_->phone()->line().SetExtensionOffHook(true);
  });
  AEvent event;
  ASSERT_TRUE(conn_->NextEvent(&event).ok());
  EXPECT_EQ(event.type, EventType::kPhoneLoop);
  EXPECT_EQ(conn_->Pending(), 0);
}

TEST_F(ClientApiTest, SynchronousModeSurfacesErrorsImmediately) {
  std::vector<ErrorPacket> errors;
  conn_->SetErrorHandler(
      [&errors](AFAudioConn&, const ErrorPacket& e) { errors.push_back(e); });
  conn_->SetSynchronize(true);
  conn_->SetOutputGain(0, 99);  // async request, invalid value
  // With AFSynchronize on, the error has already been fetched.
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, AfError::kBadValue);
  conn_->SetSynchronize(false);
}

TEST_F(ClientApiTest, SynchronousModeRoundTripsComplete) {
  // Regression: the per-request Sync ran before the caller awaited its
  // reply, read past that reply and dropped it, so every round trip hung.
  // A hang cannot fail an assertion; the alarm ends the process instead.
  std::vector<ErrorPacket> errors;
  conn_->SetErrorHandler(
      [&errors](AFAudioConn&, const ErrorPacket& e) { errors.push_back(e); });
  conn_->SetSynchronize(true);
  alarm(10);
  auto t = conn_->GetTime(0);
  ASSERT_TRUE(t.ok());
  auto atom = conn_->InternAtom("SYNCHRONOUS");
  ASSERT_TRUE(atom.ok());
  auto ac = conn_->CreateAC(0, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  // Three chunks each way: the play's first two are one-way requests, its
  // last awaits the time; the record pipelines all three.
  const std::vector<uint8_t> tone(kDefaultChunkBytes * 5 / 2, 0x55);
  auto played = ac.value()->PlaySamples(t.value(), tone);
  ASSERT_TRUE(played.ok()) << played.status().ToString();
  runner_->manual_clock()->Advance(tone.size());
  std::vector<uint8_t> heard(tone.size());
  auto rec = ac.value()->RecordSamples(t.value(), heard, /*block=*/false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().actual_bytes, heard.size());
  // A failed round trip hands its error to the caller, not the handler.
  EXPECT_EQ(conn_->GetTime(99).status().code(), AfError::kBadDevice);
  alarm(0);
  EXPECT_TRUE(errors.empty());
  // One-way requests still surface their errors immediately.
  conn_->SetOutputGain(0, 99);
  EXPECT_EQ(errors.size(), 1u);
  conn_->SetSynchronize(false);
}

TEST_F(ClientApiTest, AfterFunctionRunsPerRequest) {
  int calls = 0;
  conn_->SetAfterFunction([&calls](AFAudioConn&) { ++calls; });
  conn_->NoOp();
  conn_->NoOp();
  EXPECT_EQ(calls, 2);
  conn_->SetAfterFunction(nullptr);
}

TEST_F(ClientApiTest, AfterFunctionThatSyncsKeepsEveryReply) {
  // Regression: the after-function runs before the caller awaits its
  // reply, and a Sync there read past that reply and dropped it, so every
  // round trip hung. Replies (and errors) a later AwaitReply will ask for
  // are now held for it. A hang cannot fail an assertion; the alarm ends
  // the process instead.
  std::vector<ErrorPacket> errors;
  conn_->SetErrorHandler(
      [&errors](AFAudioConn&, const ErrorPacket& e) { errors.push_back(e); });
  int calls = 0;
  conn_->SetAfterFunction([&calls](AFAudioConn& c) {
    ++calls;
    c.Sync();
  });
  alarm(10);
  auto t = conn_->GetTime(0);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto ac = conn_->CreateAC(0, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  // Three chunks each way: the after-function's Sync reads the record
  // window's replies before the record awaits them.
  const std::vector<uint8_t> tone(kDefaultChunkBytes * 5 / 2, 0x55);
  auto played = ac.value()->PlaySamples(t.value(), tone);
  ASSERT_TRUE(played.ok()) << played.status().ToString();
  runner_->manual_clock()->Advance(tone.size());
  std::vector<uint8_t> heard(tone.size());
  auto rec = ac.value()->RecordSamples(t.value(), heard, /*block=*/false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().actual_bytes, heard.size());
  // A held error still goes to the caller that awaits it.
  EXPECT_EQ(conn_->GetTime(99).status().code(), AfError::kBadDevice);
  alarm(0);
  EXPECT_TRUE(errors.empty());
  EXPECT_GE(calls, 8);  // GetTime, CreateAC, 3 play chunks, 3 record chunks
  conn_->SetAfterFunction(nullptr);
}

TEST_F(ClientApiTest, ServerSurvivesClientVanishingWhileSuspended) {
  // A client disconnects while its blocking record is suspended in the
  // server; the resume task must find it gone and everyone else lives on.
  {
    auto doomed_result = runner_->ConnectInProcess();
    ASSERT_TRUE(doomed_result.ok());
    auto doomed = doomed_result.take();
    doomed->SetIOErrorHandler([](AFAudioConn&) {});  // no exit
    auto ac = doomed->CreateAC(0, 0, ACAttributes{});
    ASSERT_TRUE(ac.ok());
    RecordSamplesReq req;
    req.ac = ac.value()->id();
    req.start_time = 0;
    req.nbytes = 8000;  // one second into the (frozen) future: suspends
    doomed->QueueRequest(Opcode::kRecordSamples, req);
    doomed->Flush();
    SleepMicros(50000);  // request reaches the server and suspends
  }  // connection closes here with the request still pending

  // Advance time so the resume task fires against the dead client.
  runner_->manual_clock()->Advance(16000);
  SleepMicros(1200000);  // the 1 s resume deadline passes
  auto t = conn_->GetTime(0);
  ASSERT_TRUE(t.ok());
  runner_->RunOnLoop([this] { EXPECT_EQ(runner_->server().client_count(), 1u); });
}

TEST_F(ClientApiTest, OpenRejectsGarbageNames) {
  EXPECT_FALSE(AFAudioConn::Open("not-a-server-name").ok());
  EXPECT_FALSE(AFAudioConn::Open("nosuchhost.invalid:0").ok());
}

}  // namespace
}  // namespace af
