module top_module (
    input clk,
    input reset,
    input en,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (reset)
            q <= 8'd0;
        else if (en)
            q <= q + 8'd1;
    end
endmodule
