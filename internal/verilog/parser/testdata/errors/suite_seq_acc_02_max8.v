module top_module (
    input clk,
    input reset,
    input [7:0] in,
    output reg [7:0] max
);
    always @(posedge clk) begin
        if (reset)
            max <= 8'd0;
        else if (in > max)
            max <= in;
    end
endmodule
